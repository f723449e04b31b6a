package analysis

// The verdicts behind FeasibleCSD, for the reference test in
// reference_test.go, which must live in analysis_test because it
// generates workloads with internal/workload.
var CSDVerdict = csdVerdict

const (
	VerdictFeasible = verdictFeasible
	VerdictCapped   = verdictCapped
)
