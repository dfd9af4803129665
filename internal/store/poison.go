package store

// recycled is what a recycled wrapper holds (Free, SpillBucket, a scan's
// wrappers at the next open): the zero StoredTuple, which pins nothing.
// Built with the pjoin_poison tag (poison_on.go; `make oracle-poison`) it
// is a wide tuple of invalid values, resident before every arrival, so a
// reader that kept a wrapper too long makes pairs the oracle's multiset
// check rejects.
var recycled StoredTuple

// poisoned reports whether recycled wrappers carry the sentinel.
func poisoned() bool { return recycled.T != nil }
