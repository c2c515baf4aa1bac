package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// httpNode is one handler served on a loopback port: an ops5d, or the
// proxy. The wiring is cmd/ops5d's and cmd/ops5proxy's minus the flags,
// in this process so the traced pass can wrap each layer's entry points
// from outside.
type httpNode struct {
	url  string
	http *http.Server
	done chan struct{} // closed when Serve has returned
}

func serve(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &httpNode{url: "http://" + ln.Addr().String(), http: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		if err := n.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(logw, "benchmark: serve %s: %v\n", n.url, err)
		}
	}()
	return n, nil
}

func (n *httpNode) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.http.Shutdown(ctx) // drain budget exceeded: Close below still ends Serve
	_ = n.http.Close()
	<-n.done
}

// fleet is the serving side of one workload: its ops5d backends and,
// for the proxy workload, the routing tier in front of them.
type fleet struct {
	servers   []*server.Server
	nodes     []*httpNode // one per server
	proxy     *cluster.Proxy
	proxyNode *httpNode
}

// url is what clients talk to: the proxy when there is one.
func (f *fleet) url() string {
	if f.proxyNode != nil {
		return f.proxyNode.url
	}
	return f.nodes[0].url
}

// startFleet brings up the workload's servers. tr, when non-nil, wraps
// every layer boundary; otherwise the handlers and the proxy's backend
// client are exactly the daemons' own.
func startFleet(p path, dataDir string, tr *tracer) (*fleet, error) {
	f := &fleet{}
	backends := 1
	if p == pathProxy {
		backends = 2
	}
	for i := 0; i < backends; i++ {
		opt := server.Options{}
		if p == pathDurable {
			opt = server.Options{DataDir: dataDir, Durability: "commit", SnapshotEvery: 50}
		}
		srv := server.New(opt)
		f.servers = append(f.servers, srv)
		if _, err := srv.EnableDurability(); err != nil {
			f.close()
			return nil, err
		}
		h := srv.Handler()
		if tr != nil {
			h = tr.wrap(layerServer, h)
		}
		n, err := serve(h)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	if p != pathProxy {
		return f, nil
	}
	opt := cluster.Options{}
	for _, n := range f.nodes {
		opt.Backends = append(opt.Backends, n.url)
	}
	if tr != nil {
		// cluster's own default client, with the RoundTripper wrapped.
		opt.Client = &http.Client{Timeout: 10 * time.Second,
			Transport: &transport{t: tr, base: http.DefaultTransport.(*http.Transport).Clone()}}
	}
	proxy, err := cluster.New(opt)
	if err != nil {
		f.close()
		return nil, err
	}
	proxy.Start()
	f.proxy = proxy
	h := proxy.Handler()
	if tr != nil {
		h = tr.wrap(layerProxy, h)
	}
	if f.proxyNode, err = serve(h); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close stops the front end first, then the proxy's health loop, then
// the backends, draining each.
func (f *fleet) close() {
	if f.proxyNode != nil {
		f.proxyNode.close()
	}
	if f.proxy != nil {
		f.proxy.Close()
	}
	for _, n := range f.nodes {
		n.close()
	}
	for _, srv := range f.servers {
		srv.Close()
	}
}
