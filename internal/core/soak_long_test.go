//go:build pjoin_soak

package core_test

// `make soak` builds with the pjoin_soak tag: TestLifecycleSoak's long
// form, 10^7 tuples per run.
func init() { soakTuples = 10_000_000 }
