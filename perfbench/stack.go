package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"time"

	"rtmap/internal/cluster"
	"rtmap/internal/serve"
)

// stack is the measured program: one in-process rtmap-serve node, or
// for a routed workload a cluster router in front of two nodes. All of
// it runs in this process, on loopback.
type stack struct {
	nodes    []*serve.Server
	nodeURLs []string
	router   *cluster.Router
	url      string // where the load is sent
	served   chan error
	running  int
}

func quiet(string, ...any) {}

// startStack builds and starts the servers with default options, apart
// from a loopback address, a silent log and, when traceBuf > 0, a span
// ring of that size. For a routed workload the nodes are rebuilt until
// the hash ring places the model variants on different nodes: the ring
// hashes the node URLs, and the ports are new each time.
func startStack(w workload, traceBuf int) (*stack, error) {
	for try := 0; try < 32; try++ {
		s, err := startNodes(w, traceBuf)
		if err != nil || !w.routed {
			return s, err
		}
		if s.spread(w) {
			if err := s.startRouter(traceBuf); err != nil {
				return nil, err
			}
			return s, nil
		}
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	return nil, errors.New("the ring never placed the model variants on different nodes")
}

func startNodes(w workload, traceBuf int) (*stack, error) {
	s := &stack{served: make(chan error, 3)}
	n := 1
	if w.routed {
		n = 2
	}
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Options{Addr: "127.0.0.1:0", Logf: quiet, TraceBuf: traceBuf})
		addr, err := srv.Listen()
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.nodes = append(s.nodes, srv)
		s.nodeURLs = append(s.nodeURLs, "http://"+addr.String())
		s.serve(srv.Serve)
	}
	s.url = s.nodeURLs[0]
	return s, nil
}

// owner returns the index of the node the ring gives variant v's key.
func (s *stack) owner(w workload, v uint64) int {
	if len(s.nodes) == 1 {
		return 0
	}
	ring, err := cluster.NewRing(s.nodeURLs, 0)
	if err != nil {
		panic(err) // the URLs are distinct and non-empty by construction
	}
	return slices.Index(s.nodeURLs, ring.Owners(cluster.RouteKey(w.model, actBits, ptr(sparsity), v), 1)[0])
}

// spread reports whether every variant has a node of its own.
func (s *stack) spread(w workload) bool {
	owners := map[int]bool{}
	for _, v := range w.variants {
		owners[s.owner(w, v)] = true
	}
	return len(owners) == len(w.variants)
}

func (s *stack) startRouter(traceBuf int) error {
	r, err := cluster.New(cluster.Options{Addr: "127.0.0.1:0", Nodes: s.nodeURLs, Logf: quiet, TraceBuf: traceBuf})
	if err == nil {
		var addr net.Addr
		if addr, err = r.Listen(); err == nil {
			s.router = r
			s.url = "http://" + addr.String()
			s.serve(r.Serve)
			return nil
		}
	}
	return errors.Join(err, s.close())
}

func (s *stack) serve(f func() error) {
	s.running++
	go func() { s.served <- f() }()
}

// close shuts the router, then the nodes, and waits for every Serve
// call to return.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.router != nil {
		errs = append(errs, s.router.Shutdown(ctx))
		// The router proxies through the default transport. A node's
		// Shutdown waits 5 s on a connection that was dialed but never
		// sent a request, so close the router's before the nodes'.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	for _, n := range s.nodes {
		errs = append(errs, n.Shutdown(ctx))
	}
	for ; s.running > 0; s.running-- {
		errs = append(errs, <-s.served)
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("stopping the stack: %w", err)
	}
	return nil
}
