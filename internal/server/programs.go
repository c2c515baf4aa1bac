package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
)

// Content-addressed program registry. Every compiled program already
// lives in s.programs keyed by the SHA-256 of its source (sharedProg);
// this file adds the explicit registration surface a routing proxy
// uses: POST /programs registers source once and returns its hash,
// GET /programs lists what this backend holds, GET /programs/{hash}
// returns a registered program's source, and session creates may then
// name the program by hash alone (SessionConfig.ProgramHash) — no
// source bytes on the wire, no parse, no Rete compile. A create by a
// hash this backend does not hold is ErrNoProgram (424); the proxy
// answers it by pushing the source. A migration needs none of this:
// the export payload carries the source.

// ProgramInfo describes one registered program.
type ProgramInfo struct {
	Hash string `json:"hash"` // hex SHA-256 of the source
	// Rules/Classes size the compiled network; Sessions counts live
	// sessions sharing it.
	Rules    int `json:"rules"`
	Classes  int `json:"classes"`
	Sessions int `json:"sessions"`
	SrcBytes int `json:"src_bytes"`
	// Compiled reports whether registration found the program already
	// cached (false = this call paid the parse+compile).
	Compiled bool `json:"already_cached"`
}

// RegisterProgram parses and compiles source (or finds it cached) and
// pins it in the content-addressed registry. Idempotent: registering
// byte-identical source twice returns the same hash and compiles once.
func (s *Server) RegisterProgram(src string) (*ProgramInfo, error) {
	if src == "" {
		return nil, fmt.Errorf("missing program source")
	}
	sp, shared, err := s.sharedProg(src)
	if err != nil {
		return nil, err
	}
	s.met.programRegistered()
	s.mu.RLock()
	refs := sp.refs
	s.mu.RUnlock()
	return &ProgramInfo{
		Hash:     hex.EncodeToString(sp.hash[:]),
		Rules:    len(sp.net.Rules),
		Classes:  len(sp.prog.Classes),
		Sessions: refs,
		SrcBytes: len(sp.src),
		Compiled: shared,
	}, nil
}

// programByHash resolves a hex SHA-256 against the registry.
func (s *Server) programByHash(hexhash string) (*sharedProgram, error) {
	b, err := hex.DecodeString(hexhash)
	if err != nil || len(b) != sha256.Size {
		return nil, fmt.Errorf("bad program hash %q (want hex SHA-256)", hexhash)
	}
	s.mu.RLock()
	sp := s.programs[[sha256.Size]byte(b)]
	s.mu.RUnlock()
	if sp == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoProgram, hexhash)
	}
	return sp, nil
}

// ProgramSource returns the exact source of a registered program.
func (s *Server) ProgramSource(hexhash string) (string, error) {
	sp, err := s.programByHash(hexhash)
	if err != nil {
		return "", err
	}
	return sp.src, nil
}

// Programs lists every program this backend holds, sorted by hash.
func (s *Server) Programs() []ProgramInfo {
	s.mu.RLock()
	out := make([]ProgramInfo, 0, len(s.programs))
	for hash, sp := range s.programs {
		out = append(out, ProgramInfo{
			Hash:     hex.EncodeToString(hash[:]),
			Rules:    len(sp.net.Rules),
			Classes:  len(sp.prog.Classes),
			Sessions: sp.refs,
			SrcBytes: len(sp.src),
			Compiled: true,
		})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out
}
