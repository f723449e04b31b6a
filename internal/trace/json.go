package trace

import (
	"encoding/json"
	"fmt"
	"strconv"

	"emeralds/internal/vtime"
)

// Raw trace serialization: a lossless, versioned JSON encoding of the
// event log, precise to the nanosecond (unlike the Perfetto export,
// whose timestamps are float microseconds). The attribution engine
// (package attrib, cmd/emreport) replays this format; the Perfetto
// export embeds it alongside the traceEvents array so one -trace-out
// file serves both ui.perfetto.dev and emreport.

// RawSchema versions the raw trace JSON layout.
const RawSchema = "emeralds.trace/v1"

// RawEvent is the JSON form of one Event. Times and durations are
// integer nanoseconds — exact, unlike the artifact µs floats.
type RawEvent struct {
	At     int64  `json:"at"`
	Kind   string `json:"kind"`
	Task   string `json:"task"`
	Detail string `json:"detail,omitempty"`
	Dur    int64  `json:"dur,omitempty"`
	CPU    int    `json:"cpu,omitempty"`
}

// RawLog is the serialized log: the retained events plus the lifetime
// and dropped counts, so a consumer can tell a complete trace from a
// truncated one.
type RawLog struct {
	Schema  string     `json:"schema"`
	Total   uint64     `json:"total"`
	Dropped uint64     `json:"dropped"`
	Events  []RawEvent `json:"events"`
}

// writeRaw streams the retained events as a RawLog object, byte for
// byte what encoding/json writes for one (struct fields in declaration
// order, omitempty members left out): the Perfetto export's embedded
// block.
func (l *Log) writeRaw(j *jsonWriter) {
	b := append(j.buf, `{"schema":`...)
	b = appendString(b, RawSchema)
	b = append(b, `,"total":`...)
	b = strconv.AppendUint(b, l.Total(), 10)
	b = append(b, `,"dropped":`...)
	b = strconv.AppendUint(b, l.Dropped(), 10)
	j.buf = append(b, `,"events":[`...)
	sep := ""
	for _, seg := range l.segments() {
		for i := range seg {
			if j.err != nil {
				return
			}
			e := &seg[i]
			b := append(j.buf, sep...)
			sep = ","
			b = append(b, `{"at":`...)
			b = strconv.AppendInt(b, int64(e.At), 10)
			b = append(b, `,"kind":`...)
			b = appendKind(b, e.Kind)
			b = append(b, `,"task":`...)
			b = appendString(b, e.Task)
			if e.Detail != "" {
				b = append(b, `,"detail":`...)
				b = appendString(b, e.Detail)
			}
			if e.Dur != 0 {
				b = append(b, `,"dur":`...)
				b = strconv.AppendInt(b, int64(e.Dur), 10)
			}
			if e.CPU != 0 {
				b = append(b, `,"cpu":`...)
				b = strconv.AppendInt(b, int64(e.CPU), 10)
			}
			j.buf = append(b, '}')
			j.maybeFlush()
		}
	}
	j.lit("]}")
}

// kindByName inverts kindNames; built once, read-only afterwards.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, NumKinds)
	for k := Kind(0); k < NumKinds; k++ {
		m[k.String()] = k
	}
	return m
}()

// Decode converts a RawLog back to events, rejecting unknown schemas
// and kinds, negative CPUs and negative durations. The dropped count
// travels with the result so consumers can refuse (or warn about)
// truncated traces.
func (r RawLog) Decode() (events []Event, dropped uint64, err error) {
	if r.Schema != RawSchema {
		return nil, 0, fmt.Errorf("trace: schema %q, want %q", r.Schema, RawSchema)
	}
	events = make([]Event, len(r.Events))
	for i, re := range r.Events {
		k, ok := kindByName[re.Kind]
		if !ok {
			return nil, 0, fmt.Errorf("trace: event %d has unknown kind %q", i, re.Kind)
		}
		if re.CPU < 0 {
			return nil, 0, fmt.Errorf("trace: event %d has negative cpu %d", i, re.CPU)
		}
		if re.Dur < 0 {
			return nil, 0, fmt.Errorf("trace: event %d has negative dur %d", i, re.Dur)
		}
		events[i] = Event{
			At: vtime.Time(re.At), Kind: k, Task: re.Task,
			Detail: re.Detail, Dur: vtime.Duration(re.Dur), CPU: re.CPU,
		}
	}
	return events, r.Dropped, nil
}

// ParseJSON reads a raw-trace JSON document — either a bare RawLog or
// a Perfetto export with the RawLog embedded under "emeraldsTrace"
// (the form emsim -trace-out writes).
func ParseJSON(data []byte) (events []Event, dropped uint64, err error) {
	var probe struct {
		Schema   string          `json:"schema"`
		Embedded json.RawMessage `json:"emeraldsTrace"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, 0, fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if probe.Schema == "" && len(probe.Embedded) > 0 {
		data = probe.Embedded
	}
	var raw RawLog
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, 0, fmt.Errorf("trace: parse raw log: %w", err)
	}
	if raw.Schema == "" {
		return nil, 0, fmt.Errorf("trace: no raw event log found (need %q, or a Perfetto export with an embedded emeraldsTrace block)", RawSchema)
	}
	return raw.Decode()
}
