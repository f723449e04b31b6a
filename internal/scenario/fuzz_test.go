package scenario

import (
	"encoding/json"
	"reflect"
	"testing"

	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// FuzzReproRoundTrip throws arbitrary bytes at the repro loader: parsing
// must never panic, and any input that parses as a Scenario must survive
// a marshal/unmarshal cycle unchanged — the contract emfuzz relies on
// when it minimizes a violation, writes the repro, and replays it from
// disk. Seeds live under testdata/fuzz/FuzzReproRoundTrip; ci.sh runs a
// short -fuzztime smoke.
func FuzzReproRoundTrip(f *testing.F) {
	for _, idx := range []int{0, 7, 8, 9, 10} {
		data, err := json.Marshal(Gen(1, idx, 0))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","tasks":[{"spec":{"name":"a","period":1000}}]}`))
	f.Add([]byte(`not a scenario`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeRepro(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("parsed scenario does not re-marshal: %v", err)
		}
		back, err := decodeRepro(out)
		if err != nil {
			t.Fatalf("re-marshaled scenario does not parse: %v", err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the scenario:\n%+v\n%+v", s, back)
		}
	})
}

// Minimized repros must survive the disk round trip: the file emfuzz
// writes replays to the same finding. Exercised here with a vlink op
// referencing a nonexistent link, so the minimizer also has to keep the
// offending op while garbage-collecting a decoy link.
func TestMinimizeOutputRoundTrips(t *testing.T) {
	s := Gen(1, 7, 0) // vlink-fan archetype
	s.VLinks = append(s.VLinks, VLinkSpec{Cap: 2})
	bad := len(s.Tasks)
	s.Tasks = append(s.Tasks, Task{Spec: s.Tasks[0].Spec})
	s.Tasks[bad].Spec.Name = "bad"
	s.Tasks[bad].Spec.Prog = s.Tasks[bad].Spec.Prog.Clone()
	s.Tasks[bad].Spec.Prog[len(s.Tasks[bad].Spec.Prog)-1].Obj = 99

	hasFinding := func(sc *Scenario) bool {
		for _, f := range Run(sc).Findings {
			if f.Oracle == OraclePanic {
				return true
			}
		}
		return false
	}
	if !hasFinding(s) {
		t.Fatal("seed scenario did not produce a panic finding")
	}
	min := Minimize(s, OraclePanic)
	if len(min.VLinks) >= len(s.VLinks) {
		t.Fatalf("minimizer kept all %d vlinks", len(min.VLinks))
	}
	path := t.TempDir() + "/min.json"
	if err := WriteRepro(min, path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(min, back) {
		t.Fatalf("minimized repro changed on disk round trip:\n%+v\n%+v", min, back)
	}
	if !hasFinding(back) {
		t.Fatal("reloaded repro no longer reproduces the finding")
	}
}

// dropUnreferenced must renumber virtual links exactly like mailboxes:
// the surviving link keeps its spec and every vlink op is rewritten.
func TestDropUnreferencedVLinks(t *testing.T) {
	s := &Scenario{
		Policy: sim.PolicyEDF, ZeroCost: true, Horizon: vtime.Millis(10),
		VLinks: []VLinkSpec{{Cap: 4}, {Cap: 2, Drop: true}},
		Tasks: []Task{{Spec: task.Spec{Name: "a", Period: vtime.Millis(5),
			WCET: vtime.Micros(300),
			Prog: task.Program{task.VSend(1, 7, 8, 1), task.VRecv(1)}}}},
	}
	c := dropUnreferenced(s)
	if c == nil {
		t.Fatal("nothing dropped despite unreferenced vlink 0")
	}
	if len(c.VLinks) != 1 || !c.VLinks[0].Drop || c.VLinks[0].Cap != 2 {
		t.Fatalf("wrong vlink survived: %+v", c.VLinks)
	}
	prog := c.Tasks[0].Spec.Prog
	if prog[0].Obj != 0 || prog[1].Obj != 0 {
		t.Fatalf("vlink ops not renumbered: %v", prog)
	}
	if _, _, err := Build(c); err != nil {
		t.Fatalf("shrunk scenario no longer builds: %v", err)
	}
}
