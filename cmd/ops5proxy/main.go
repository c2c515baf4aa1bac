// Command ops5proxy is the cluster's availability and migration tier: a
// stateless proxy that places each new session on the least-loaded live
// ops5d backend, health-checks the backends, keeps the cluster-wide
// content-addressed program cache, and migrates live sessions between
// backends on request.
//
// Usage:
//
//	ops5proxy -backends http://h1:8726,http://h2:8726 [-addr :8800]
//	          [-health-every 2s] [-drain 10s]
//
// The proxy serves the same /sessions API as one ops5d, so clients
// point at it unchanged, plus POST /sessions/{id}/migrate and the
// cluster-level /programs, /metrics and /healthz views. Like ops5d,
// -addr with port 0 binds an ephemeral port and prints the bound
// address as the first stdout line.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":8800", "listen address")
	backends := flag.String("backends", "", "comma-separated ops5d base URLs (required)")
	healthEvery := flag.Duration("health-every", 2*time.Second, "backend health-probe interval")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain budget")
	flag.Parse()
	if flag.NArg() != 0 || *backends == "" {
		fmt.Fprintln(os.Stderr, "usage: ops5proxy -backends URL[,URL...] [flags]  (see -h)")
		os.Exit(2)
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	p, err := cluster.New(cluster.Options{
		Backends:    urls,
		HealthEvery: *healthEvery,
	})
	if err != nil {
		log.Fatalf("ops5proxy: %v", err)
	}
	p.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("ops5proxy: listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	fmt.Printf("listening on %s\n", bound)
	httpSrv := &http.Server{Handler: p.Handler()}

	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		sig := <-sigs
		log.Printf("ops5proxy: %v — draining (budget %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("ops5proxy: shutdown: %v", err)
		}
		p.Close()
	}()

	log.Printf("ops5proxy: routing %d backends on %s", len(urls), bound)
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("ops5proxy: %v", err)
	}
	<-done
	log.Printf("ops5proxy: drained, bye")
}
