package server

import (
	"fmt"

	"repro/internal/wmlog"
)

// Session migration: export serializes a drained session — resolved
// config plus a versioned wmlog snapshot of WM, refraction, time-tag
// counter, halt flag and pending (accept) input — and import rebuilds
// an identical session on another backend, restoring through the same
// match machinery recovery uses. The routing proxy orchestrates the
// pair (export source → import target → delete source → flip route);
// either side alone is also a backup/restore primitive.

// ExportPayload is a session's complete portable state.
type ExportPayload struct {
	// ID the session was exported under; import recreates it under the
	// same ID (the proxy's routing key) unless overridden.
	ID string `json:"id"`
	// Config is the resolved session config, full program source
	// included — the import side may never have seen the program.
	Config   SessionConfig `json:"config"`
	Template string        `json:"template,omitempty"`
	// Snapshot is the encoded wmlog snapshot (magic, version, CRC and
	// payload format stamp included), base64 in JSON. Import rejects a
	// snapshot written by a different payload format with
	// wmlog.ErrSnapshotVersion.
	Snapshot []byte `json:"snapshot"`
	WMSize   int    `json:"wm_size"`
	Halted   bool   `json:"halted"`
}

// ExportSession captures a session's portable state. The session stays
// live and untouched; callers that migrate delete it once the import
// succeeded. A network that diverged from the compiled program (runtime
// build/excise, match-budget quarantine) travels as the snapshot's
// program delta.
func (s *Server) ExportSession(id string) (*ExportPayload, error) {
	sess, err := s.session(id)
	if err != nil {
		return nil, err
	}
	if err := sess.lock(); err != nil {
		return nil, err
	}
	defer sess.mu.Unlock()
	if sess.broken != nil {
		return nil, sess.broken
	}
	st := sess.eng.CaptureState()
	st.ProgHash = sess.sp.hash
	b, err := st.Encode()
	if err != nil {
		return nil, fmt.Errorf("encode snapshot: %w", err)
	}
	return &ExportPayload{
		ID:       sess.ID,
		Config:   sess.cfg,
		Template: sess.template,
		Snapshot: b,
		WMSize:   sess.eng.WM.Len(),
		Halted:   sess.eng.Halted(),
	}, nil
}

// ImportSession rebuilds an exported session on this server under its
// exported ID (payload.ID). The program compiles through the shared
// cache — a backend that already holds the hash pays no parse or Rete
// compile. With durability enabled the imported session persists like
// any other: program, meta, the payload's snapshot covering an empty
// delta log, so a crash right after import recovers the migrated state
// exactly.
func (s *Server) ImportSession(p *ExportPayload) (*SessionInfo, error) {
	if p.ID == "" {
		return nil, fmt.Errorf("import payload has no session ID")
	}
	snap, err := wmlog.DecodeSnapshot(p.Snapshot)
	if err != nil {
		return nil, fmt.Errorf("import snapshot: %w", err)
	}
	if snap.LogOffset != 0 || snap.Segment != 0 {
		// Export never sets them; a payload cut from a compaction snapshot
		// would make recovery skip that much of the session's new log.
		return nil, fmt.Errorf("import snapshot starts at segment %d offset %d of a delta log; want an exported state (0, 0)",
			snap.Segment, snap.LogOffset)
	}

	id, err := s.reserveID(p.ID)
	if err != nil {
		return nil, err
	}
	defer s.unreserveID(p.ID)

	sp, _, err := s.resolveProgram(&p.Config)
	if err != nil {
		return nil, err
	}
	c, err := sp.restore(&p.Config, snap, nil)
	if err != nil {
		return nil, fmt.Errorf("import: %w", err)
	}
	sess := newSession(id, sp, p.Config, c, p.Template)
	if err := s.admit(sess, p.Snapshot); err != nil {
		return nil, err
	}
	return sess.info(true), nil
}
