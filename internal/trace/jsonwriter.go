package trace

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Streaming JSON output for the trace exports. Both the Perfetto export
// and the raw log append their objects to one reused buffer and hand it
// to the destination in chunks, so an export costs a fixed number of
// allocations however many events it writes. Each object is appended to
// a local copy of the buffer with the append* functions and stored back
// once: while the garbage collector marks, every store of the buffer
// into the writer runs a write barrier. The appenders reproduce
// encoding/json's bytes exactly: its float format and its HTML-safe
// string escaping. Callers write object keys in the order encoding/json
// would (lexical for maps, declaration order for structs).

// flushAt is the buffered size at which a jsonWriter hands its bytes to
// the destination.
const flushAt = 64 << 10

// jsonWriter buffers JSON text for w and keeps the first write error;
// once a write fails, later output is discarded.
type jsonWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newJSONWriter(w io.Writer) jsonWriter {
	return jsonWriter{w: w, buf: make([]byte, 0, flushAt+flushAt/4)}
}

// maybeFlush writes the buffer out once it holds a full chunk. Call it
// only between complete values, so a chunk never ends inside a token
// the caller is still appending to.
func (j *jsonWriter) maybeFlush() {
	if len(j.buf) >= flushAt {
		j.flush()
	}
}

// flush writes out whatever is buffered and returns the first write
// error seen.
func (j *jsonWriter) flush() error {
	if j.err == nil && len(j.buf) > 0 {
		_, j.err = j.w.Write(j.buf)
	}
	j.buf = j.buf[:0]
	return j.err
}

// lit appends s verbatim: JSON punctuation, keys and known-safe values.
func (j *jsonWriter) lit(s string) { j.buf = append(j.buf, s...) }

// appendKind appends k's name as a JSON string.
func appendKind(b []byte, k Kind) []byte {
	if k < NumKinds {
		return append(b, kindJSON[k]...)
	}
	return appendString(b, k.String())
}

// kindJSON holds each defined kind's name quoted as a JSON string.
var kindJSON = func() (q [NumKinds]string) {
	for k := range q {
		q[k] = string(appendString(nil, kindNames[k]))
	}
	return q
}()

// usExact is 1000·2^43: appendUs formats nanosecond counts in
// [0, usExact) itself and hands the rest to appendFloat.
const usExact = 1000 << 43

// appendUs appends n nanoseconds in microseconds, byte for byte as
// appendFloat(b, float64(n)/1e3) does: the integer part, then '.' and
// up to three digits with trailing zeros dropped. Below usExact the
// two agree. float64(n) is exact there (n < 2^53), and the quotient is
// below 2^43, where a float64's spacing is under 0.001. So n/1000,
// which has at most three decimals, is the only decimal with that few
// decimals that rounds to the quotient, and no shorter one does: it is
// the shortest decimal that round-trips, which is what appendFloat
// writes ('f' form, as n/1000 ≥ 0.001 unless it is 0).
func appendUs(b []byte, n int64) []byte {
	if n < 0 || n >= usExact {
		return appendFloat(b, float64(n)/1e3)
	}
	b = strconv.AppendInt(b, n/1000, 10)
	if f := n % 1000; f != 0 {
		b = append(b, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
		for b[len(b)-1] == '0' {
			b = b[:len(b)-1]
		}
	}
	return b
}

// appendFloat appends f in encoding/json's format: the shortest
// decimal that round-trips, in 'f' form except below 1e-6 and at 1e21
// and above, where it switches to 'e' form with the exponent's leading
// zero dropped (1e-07 becomes 1e-7). f must be finite; encoding/json
// refuses NaN and infinities, and the exports only ever divide int64
// nanoseconds.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string. Strings that need no escape
// under encoding/json's HTML-safe rules are quoted as they are; the
// rest, which hold a control byte, a quote, a backslash, <, >, &,
// invalid UTF-8, U+2028 or U+2029, go through json.Marshal itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return appendMarshaled(b, s)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return appendMarshaled(b, s)
		}
		i += size
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendMarshaled(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // marshaling a string cannot fail
	return append(b, q...)
}
