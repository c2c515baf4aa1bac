package server

import (
	"errors"
	"time"
)

// ProgramRequest is the body of POST /sessions/{id}/program: a runtime
// program change applied to one session. Excise names are removed
// first, then Source — a batch of (p ...) and (excise name) forms — is
// applied in source order. Each change recompiles the session's network
// whole and re-matches its working memory. The change is private to the
// session: it moves onto its own network while every other session
// created from the same program keeps matching on the shared base one.
type ProgramRequest struct {
	Source string   `json:"source,omitempty"`
	Excise []string `json:"excise,omitempty"`
}

// ProgramResult reports the applied change and the session's new
// network shape.
type ProgramResult struct {
	Added        []string `json:"added"`
	Excised      []string `json:"excised"`
	Epoch        int      `json:"epoch"`
	Rules        int      `json:"rules"`
	Chains       int      `json:"chains"`
	Joins        int      `json:"joins"`
	SharedChains int      `json:"shared_chains"`
	SharedJoins  int      `json:"shared_joins"`
	ElapsedUs    int64    `json:"elapsed_us"`
}

// Program applies a runtime program change to a session. It is the
// synchronous core; the HTTP layer runs it in a work slot.
func (s *Server) Program(id string, req *ProgramRequest) (*ProgramResult, error) {
	sess, err := s.session(id)
	if err != nil {
		return nil, err
	}
	if req.Source == "" && len(req.Excise) == 0 {
		return nil, errors.New("empty program change: need source and/or excise")
	}

	if err := sess.lock(); err != nil {
		return nil, err
	}
	defer sess.mu.Unlock()

	res := &ProgramResult{Added: []string{}, Excised: []string{}}
	start := time.Now()
	err = s.guard(sess, func() error {
		for _, name := range req.Excise {
			if err := sess.eng.Excise(name); err != nil {
				return err
			}
			res.Excised = append(res.Excised, name)
		}
		if req.Source != "" {
			added, excised, err := sess.eng.AddRules(req.Source)
			res.Added = append(res.Added, added...)
			res.Excised = append(res.Excised, excised...)
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sum := sess.eng.Net.Summarize()
	res.Epoch = sum.Epoch
	res.Rules = sum.Rules
	res.Chains = sum.Chains
	res.Joins = sum.Joins
	res.SharedChains = sum.SharedChains
	res.SharedJoins = sum.SharedJoins
	res.ElapsedUs = time.Since(start).Microseconds()

	err = s.commitLocked(sess)
	s.foldLocked(sess, false)
	if err != nil {
		return nil, err
	}
	return res, nil
}
