package gen

import (
	"context"
	"runtime"
	"time"

	"repro/internal/serve"
	"repro/polypipe"
)

// Service is the detection server under test with a generator aimed at
// its /v1/detect, both in this process. The server is built the way
// cmd/pipelined builds it: a caching session with a registry, default
// limits, a loopback listener on a free port.
type Service struct {
	Session *polypipe.Session
	Server  *serve.Server
	Load    *Generator
}

// StartService starts the server and a generator that posts docs over
// at most GOMAXPROCS connections.
func StartService(docs []Doc) (*Service, error) {
	reg := polypipe.NewRegistry()
	sess := polypipe.NewSessionFromConfig(polypipe.Config{Cache: true, Registry: reg})
	srv := serve.New(sess, serve.Limits{}, reg)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		_ = sess.Close()
		return nil, err
	}
	bodies := make([][]byte, len(docs))
	for i, d := range docs {
		bodies[i] = d.Body
	}
	load := NewGenerator("http://"+addr.String()+"/v1/detect", bodies, runtime.GOMAXPROCS(0))
	return &Service{Session: sess, Server: srv, Load: load}, nil
}

// Stop drains the server, waits for it, and closes the session.
func (s *Service) Stop() {
	s.Load.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.Server.Drain(ctx) // nothing is in flight; a timeout here changes no result
	_ = s.Session.Close()
}
