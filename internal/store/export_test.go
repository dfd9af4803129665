package store

// WrapperChunks returns how many wrapper chunks the state has carved.
func (st *State) WrapperChunks() int { return st.al.stored.Cap() / storedChunk }
