package server

import "repro/internal/wmlog"

// LedgerSrc is the ledger of the end-to-end benchmark's
// serve-ingest-durable workload: an acct x txn equality join guarded by
// a negated hold, modify + remove on the right-hand side.
const LedgerSrc = `(literalize acct id bal n)
(literalize txn acct amt)
(literalize hold acct)
(p post
   (txn ^acct <a> ^amt <m>)
   (acct ^id <a> ^bal <b> ^n <n>)
  -(hold ^acct <a>)
  -->
   (modify 2 ^bal (compute <b> + <m>) ^n (compute <n> + 1))
   (remove 1))
`

// WaitCompactions blocks until no session has a compaction queued or in
// flight. A test that "crashes" a server by abandoning it calls this
// first: abandoning stops the batches, as a crash would, but not the
// compaction goroutines, which would otherwise race the recovering server
// over the same directory.
func (s *Server) WaitCompactions() {
	s.mu.RLock()
	live := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.RUnlock()
	for _, sess := range live {
		sess.mu.Lock()
		if p := sess.compaction; p != nil {
			<-p.done
		}
		sess.mu.Unlock()
	}
}

// SetCompactionFS routes the compaction protocol's file operations
// through fs. Call it after EnableDurability, before any compaction.
func (s *Server) SetCompactionFS(fs wmlog.FS) { s.dur.fs = fs }

// ResizeTable re-slots a live session's token table into n lines
// (hashmem.Table.Grow, which shrinks as well), as the adaptive growth
// does between submits. The fixed-cost gate sizes its sessions with it.
func (s *Server) ResizeTable(id string, n int) error {
	sess, err := s.session(id)
	if err != nil {
		return err
	}
	if err := sess.lock(); err != nil {
		return err
	}
	defer sess.mu.Unlock()
	m := sess.matcher
	m.Table.FoldLive(&m.Pools)
	m.Table = m.Table.Grow(n, &m.Pools)
	return nil
}

// CheckSlots runs the slot-safety oracle on a live session's engine: no
// stored token may name a slot whose element has left working memory.
func (s *Server) CheckSlots(id string) error {
	sess, err := s.session(id)
	if err != nil {
		return err
	}
	if err := sess.lock(); err != nil {
		return err
	}
	defer sess.mu.Unlock()
	return sess.eng.CheckSlots()
}
