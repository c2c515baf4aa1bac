package server

import "repro/internal/wmlog"

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
