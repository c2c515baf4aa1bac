// Command ops5d is the OPS5 inference daemon: it hosts many concurrent
// engine sessions over shared read-only Rete networks and serves the
// HTTP/JSON API of internal/server.
//
// Usage:
//
//	ops5d [-addr :8726] [-max-sessions 256] [-workers 0]
//	      [-max-cycles 10000] [-timeout 5s] [-max-batch 4096]
//	      [-data-dir DIR] [-snapshot-every 0]
//
// An address with port 0 (e.g. -addr 127.0.0.1:0) binds an ephemeral
// port; the daemon prints the bound address as its first stdout line
// ("listening on HOST:PORT") so scripts can spawn backends without
// picking ports.
//
// With -data-dir set the daemon is durable: every session appends its
// WM deltas to a per-session log under DIR, fsynced once per request
// batch, and a restart over the same directory recovers every session
// and template. SIGINT/SIGTERM drain in-flight requests and flush the
// delta logs before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8726", "listen address")
	maxSessions := flag.Int("max-sessions", 256, "live session cap")
	workers := flag.Int("workers", 0, "requests doing session work at once (0 = 2x CPU, min 4)")
	maxCycles := flag.Int("max-cycles", 10000, "default recognize-act cycle budget per request (<0 = unlimited)")
	timeout := flag.Duration("timeout", 5*time.Second, "default per-request run budget")
	maxBatch := flag.Int("max-batch", 4096, "max WM changes per request")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain budget")
	dataDir := flag.String("data-dir", "", "durability directory; empty = memory-only")
	snapEvery := flag.Int("snapshot-every", 0, "compact a session's delta log after this many batches (0 = only on demand)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: ops5d [flags]  (see -h)")
		os.Exit(2)
	}

	srv := server.New(server.Options{
		MaxSessions:      *maxSessions,
		Workers:          *workers,
		DefaultMaxCycles: *maxCycles,
		DefaultTimeout:   *timeout,
		MaxBatch:         *maxBatch,
		DataDir:          *dataDir,
		SnapshotEvery:    *snapEvery,
	})
	if *dataDir != "" {
		recovered, err := srv.EnableDurability()
		if err != nil {
			log.Fatalf("ops5d: cannot open data dir %q: %v", *dataDir, err)
		}
		log.Printf("ops5d: durable in %s, recovered %d entries", *dataDir, recovered)
	} else if *snapEvery != 0 {
		log.Fatalf("ops5d: -snapshot-every needs -data-dir")
	}
	// Listen before serving so a ":0" ephemeral port resolves to its
	// real address, printed on stdout for spawning harnesses to read.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("ops5d: listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	fmt.Printf("listening on %s\n", bound)
	httpSrv := &http.Server{Handler: srv.Handler()}

	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		sig := <-sigs
		log.Printf("ops5d: %v — draining (budget %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("ops5d: shutdown: %v", err)
		}
		srv.Close()
	}()

	log.Printf("ops5d: serving on %s", bound)
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("ops5d: %v", err)
	}
	<-done
	log.Printf("ops5d: drained, bye")
}
