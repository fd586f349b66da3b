package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/httpgw"
	"repro/internal/ingestq"
	"repro/internal/rpc"
	"repro/internal/shard"
)

// server is the system under test, wired as cmd/tsdbd wires it: one
// shard router behind an RPC server and an HTTP gateway that share one
// bounded dispatch queue, listening on loopback.
type server struct {
	dir       string
	partition int64
	dev       *deviceFS
	tr        *tracer // nil when the run is not traced

	router  *shard.Router
	queue   *ingestq.Queue
	rpcSrv  *rpc.Server
	rpcAddr string
	gw      *httpgw.Gateway
	httpSrv *http.Server
	httpURL string
	served  chan error // the HTTP server's Serve result
}

// backend is what both front ends dispatch onto: the router itself, or
// the tracing interposer around it in a traced run.
type backend interface {
	rpc.Backend
	httpgw.Backend
}

// openServer opens (or reopens) the store under dir and starts both
// front ends. dev keeps counting across a reopen of the same store.
func openServer(dir string, partition int64, dev *deviceFS, tr *tracer) (*server, error) {
	router, err := shard.Open(engineConfig(dir, partition, dev))
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	s := &server{dir: dir, partition: partition, dev: dev, tr: tr, router: router, served: make(chan error, 1)}
	var be backend = router
	if tr != nil {
		be = &tracedBackend{Router: router, tr: tr}
	}
	s.queue = ingestq.New(0, 0)
	s.rpcSrv = rpc.NewServer(be)
	s.rpcSrv.SetIngestQueue(s.queue)
	if s.rpcAddr, err = s.rpcSrv.Listen("127.0.0.1:0"); err != nil {
		s.queue.Close()
		router.Close()
		return nil, fmt.Errorf("rpc listen: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.rpcSrv.Close()
		s.queue.Close()
		router.Close()
		return nil, fmt.Errorf("http listen: %w", err)
	}
	s.gw = httpgw.New(be, s.queue)
	s.httpSrv = &http.Server{Handler: s.gw.Handler()}
	s.httpURL = "http://" + ln.Addr().String()
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down in tsdbd's order: front ends drain, the
// shared queue closes, then the router flushes and closes.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serveErr := <-s.served; serveErr != http.ErrServerClosed && err == nil {
		err = serveErr
	}
	if e := s.rpcSrv.Shutdown(5 * time.Second); e != nil && err == nil {
		err = e
	}
	s.queue.Close()
	s.gw.Close()
	if e := s.router.Close(); e != nil && err == nil {
		err = e
	}
	return err
}

// reopen restarts the server over the same directory, as after a clean
// shutdown, and reports how long the store took to come back.
func (s *server) reopen() (*server, time.Duration, error) {
	if err := s.stop(); err != nil {
		return nil, 0, fmt.Errorf("close before reopen: %w", err)
	}
	t0 := time.Now()
	ns, err := openServer(s.dir, s.partition, s.dev, s.tr)
	return ns, time.Since(t0), err
}

// settle waits until background flushes (and the compactions they
// trigger) have finished and surfaces any failure among them.
func (s *server) settle() error {
	s.router.WaitFlushes()
	return s.router.FlushError()
}

// diskBytes sums the sizes of the regular files under the data dir.
func (s *server) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
