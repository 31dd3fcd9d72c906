// Package measure is a real-TCP measurement harness over the loopback
// interface: an iperf-style bulk-throughput client, an application-
// level RTT prober (the analogue of the paper's measure-tcp-latency
// tool), and a real-time token-bucket rate limiter that reproduces
// EC2-style throttling on live sockets. It exists so the repository's
// findings are demonstrable on a real network stack, not only in the
// fluid emulator; cmd/netmeasure and the integration tests drive it.
package measure

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Protocol bytes sent by clients on connect.
const (
	modeBulk = 'B' // server discards the stream, counting bytes
	modeEcho = 'E' // server echoes length-prefixed pings
)

// Server accepts bulk and echo sessions on a loopback listener.
type Server struct {
	ln net.Listener
	wg sync.WaitGroup

	bytesReceived atomic.Int64
	sessions      atomic.Int64

	mu     sync.Mutex
	closed bool
}

// NewServer starts a server on an ephemeral loopback port.
func NewServer() (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("measure: listen: %w", err)
	}
	s := &Server{ln: ln}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's dialable address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and waits for in-flight sessions.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.sessions.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serve(conn)
		}()
	}
}

func (s *Server) serve(conn net.Conn) {
	var mode [1]byte
	if _, err := io.ReadFull(conn, mode[:]); err != nil {
		return
	}
	switch mode[0] {
	case modeBulk:
		s.serveBulk(conn)
	case modeEcho:
		s.serveEcho(conn)
	}
}

func (s *Server) serveBulk(conn net.Conn) {
	buf := make([]byte, 256<<10)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			s.bytesReceived.Add(int64(n))
		}
		if err != nil {
			return
		}
	}
}

// serveEcho implements the RTT protocol: each ping is a 4-byte
// big-endian length followed by that many payload bytes; the server
// echoes the frame verbatim. Length zero closes the session.
func (s *Server) serveEcho(conn net.Conn) {
	r := bufio.NewReader(conn)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := int(uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3]))
		if n == 0 {
			return
		}
		if n > maxPingBytes {
			return // protocol violation
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return
		}
		if _, err := conn.Write(hdr[:]); err != nil {
			return
		}
		if _, err := conn.Write(payload); err != nil {
			return
		}
	}
}

// maxPingBytes bounds echo payloads (1 MiB), protecting the server
// from absurd length prefixes.
const maxPingBytes = 1 << 20
