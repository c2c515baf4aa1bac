package stats

// Cluster aggregates the routing proxy's counters: session placement
// and forwarding, health checking, the cluster-wide content-addressed
// program cache, and session migration. Like the other counter structs
// it is plain int64 fields synchronized by its owner (the proxy's
// metrics mutex).
type Cluster struct {
	BackendsLive int64 `json:"backends_live"` // backends currently passing health checks
	BackendsDown int64 `json:"backends_down"` // backends currently failing health checks

	HealthChecks int64 `json:"health_checks"` // /healthz probes issued
	HealthFails  int64 `json:"health_fails"`  // probes that failed or reported not-ok
	Transitions  int64 `json:"transitions"`   // up<->down state changes observed

	SessionsRouted int64 `json:"sessions_routed"` // session creates placed on a backend
	Forwards       int64 `json:"forwards"`        // session-scoped requests forwarded
	Discoveries    int64 `json:"discoveries"`     // route-cache misses resolved by probing backends
	Retries        int64 `json:"retries"`         // forwards/creates retried after a transport failure (a push on 424 is not one)
	ReRoutes       int64 `json:"reroutes"`        // creates retried on another backend after one failed

	// Content-addressed program cache, cluster view: programs registered
	// with the proxy; program bodies pushed to a backend because a create
	// by hash got 424 there (its first create of the program, or it
	// restarted; each push is at most one parse+Rete compile, concurrent
	// duplicates share it); and creates a backend accepted by hash with
	// no push. A create re-sent after its push counts as a push only.
	ProgramsRegistered int64 `json:"programs_registered"`
	ProgramPushes      int64 `json:"program_pushes"`
	ProgramCacheHits   int64 `json:"program_cache_hits"`

	Migrations     int64 `json:"migrations"`      // sessions moved between backends
	MigrationFails int64 `json:"migration_fails"` // migrations that failed (session stays put)
}
