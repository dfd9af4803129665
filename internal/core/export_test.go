package core

import (
	"pjoin/internal/punct"
	"pjoin/internal/store"
)

// StatesForTest and SetsForTest let external tests (the ones that need
// internal/oracle, which imports this package) read the punctuation
// index: every stored tuple's pid and every entry's count.
func (j *PJoin) StatesForTest() [2]*store.State { return j.base.States }

func (j *PJoin) SetsForTest() [2]*punct.Set { return j.psets }
