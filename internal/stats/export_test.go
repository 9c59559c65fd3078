package stats

// RankErrorForTest lends the tests' rank-error measure to the property test,
// which lives in the external test package because it imports
// internal/workload.
var RankErrorForTest = rankError
