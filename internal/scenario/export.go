package scenario

import (
	"fmt"
	"io"

	"emeralds/internal/kernel"
	"emeralds/internal/telemetry"
)

// replay is the one simulation of a scenario that Run and ExportTrace
// share: Build, the flight recorder when rc is non-nil, Boot, the
// aperiodic arrivals, and the horizon. An error names the step that
// failed ("build: …", "telemetry: …", "boot: …"). The recorder only
// reads kernel state, so its presence changes nothing the simulation
// does.
func replay(s *Scenario, rc *telemetry.Config) (*kernel.Node, *telemetry.Recorder, error) {
	sys, aper, err := Build(s)
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	var rec *telemetry.Recorder
	if rc != nil {
		if rec, err = telemetry.Attach(sys.Kernel(), *rc); err != nil {
			return nil, nil, fmt.Errorf("telemetry: %w", err)
		}
	}
	if err := sys.Boot(); err != nil {
		return nil, nil, fmt.Errorf("boot: %w", err)
	}
	// Aperiodic arrivals are plain engine events; ReleaseAperiodic
	// ignores arrivals that land while a job is still in flight
	// (counted as overruns, like a lost periodic release).
	eng := sys.Kernel().Engine()
	for i, th := range aper {
		if th == nil {
			continue
		}
		for _, at := range s.Tasks[i].Arrivals {
			eng.At(at, "arrival", func() { sys.Kernel().ReleaseAperiodic(th) })
		}
	}
	sys.Run(s.Horizon)
	return sys, rec, nil
}

// ExportTrace replays the scenario — the same replay as Run, trace ring
// sized by TraceCapacity, without the flight recorder — and writes the
// schedule as Chrome/Perfetto trace-event JSON. This is the emfuzz
// -trace-out hook: a violation's repro can be inspected visually in
// ui.perfetto.dev without rerunning the oracles. A scenario whose
// simulation panics (an OraclePanic repro) surfaces the panic as an
// error instead of crashing the exporter.
func ExportTrace(s *Scenario, w io.Writer) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("scenario: replay panicked: %v", v)
		}
	}()
	sys, _, err := replay(s, nil)
	if err != nil {
		return err
	}
	if d := sys.Trace().Dropped(); d > 0 {
		return fmt.Errorf("scenario: trace ring dropped %d events", d)
	}
	return sys.Trace().ExportPerfetto(w)
}
