package analysis

// The verdicts behind FeasibleCSD, for the reference tests in
// reference_test.go, which must live in analysis_test because they
// generate workloads with internal/workload.
var (
	CSDVerdict = csdVerdict
	CapSet     = capSet
)

type Verdict = verdict

const (
	VerdictFeasible = verdictFeasible
	VerdictFailed   = verdictFailed
	VerdictCapped   = verdictCapped
	MaxCheckpoints  = maxCheckpoints
)
