package main

import (
	"bufio"
	"bytes"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"volley"
)

// rawServer answers each request with bytes the test scripts, so the reader
// can be shown responses no net/http server would write.
type rawServer struct {
	ln net.Listener
	// respond gives the bytes to answer a connection's i-th request (from 0)
	// with, and whether to close the connection after writing them. conn
	// counts the connections accepted before this one.
	respond func(conn, i int) (response string, closeAfter bool)
	// idle is how long a connection may wait for its next request before the
	// server closes it, after writing onIdle.
	idle   time.Duration
	onIdle string

	mu       sync.Mutex
	accepted int
	requests []string // every request head received
}

// patient is a rawServer idle time no test reaches; it only ends a handler
// whose client never closes.
const patient = 5 * time.Second

func newRawServer(t *testing.T, idle time.Duration, respond func(conn, i int) (string, bool)) *rawServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawServer{ln: ln, respond: respond, idle: idle}
	var conns sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			n := s.accepted
			s.accepted++
			s.mu.Unlock()
			conns.Add(1)
			go func() {
				defer conns.Done()
				s.serve(c, n)
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
		conns.Wait()
	})
	return s
}

func (s *rawServer) serve(c net.Conn, conn int) {
	defer c.Close()
	br := bufio.NewReader(c)
	for i := 0; ; i++ {
		_ = c.SetDeadline(time.Now().Add(s.idle))
		var head strings.Builder
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				if s.onIdle != "" && errors.Is(err, os.ErrDeadlineExceeded) {
					_ = c.SetDeadline(time.Now().Add(patient))
					_, _ = io.WriteString(c, s.onIdle)
				}
				return
			}
			head.WriteString(line)
			if line == "\r\n" {
				break
			}
		}
		s.mu.Lock()
		s.requests = append(s.requests, head.String())
		s.mu.Unlock()
		response, closeAfter := s.respond(conn, i)
		if _, err := io.WriteString(c, response); err != nil || closeAfter {
			return
		}
	}
}

func (s *rawServer) url() string { return "http://" + s.ln.Addr().String() }

func (s *rawServer) conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepted
}

func (s *rawServer) request(i int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests[i]
}

// newQuietServer answers every request on every connection with the same
// bytes and allocates nothing per request: testing.AllocsPerRun counts the
// whole process, and only the client is being measured.
func newQuietServer(t *testing.T, response string) (url string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns sync.WaitGroup
	var open []net.Conn
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			open = append(open, c)
			mu.Unlock()
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer c.Close()
				end, resp := []byte("\r\n\r\n"), []byte(response)
				buf, have := make([]byte, 4096), 0
				for {
					n, err := c.Read(buf[have:])
					if err != nil {
						return
					}
					have += n
					for {
						i := bytes.Index(buf[:have], end)
						if i < 0 {
							break
						}
						have = copy(buf, buf[i+len(end):have])
						if _, err := c.Write(resp); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
		mu.Lock()
		for _, c := range open {
			_ = c.Close()
		}
		mu.Unlock()
		conns.Wait()
	})
	return "http://" + ln.Addr().String()
}

func newTestHTTPAgent(t *testing.T, source string) *httpAgent {
	t.Helper()
	pool := newAgentPool(volley.NewMetrics())
	t.Cleanup(pool.close)
	a, err := newHTTPAgent(source, pool)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// shortTimeout shortens the agents' deadline for one test.
func shortTimeout(t *testing.T, d time.Duration) {
	t.Helper()
	old := agentTimeout
	agentTimeout = d
	t.Cleanup(func() { agentTimeout = old })
}

// TestHTTPAgentResponses is the HTTP the reader understands and the HTTP it
// refuses, one response each: what it reads from it, and whether it takes the
// next request to the same connection.
func TestHTTPAgentResponses(t *testing.T) {
	long := "7 " + strings.Repeat("x", 100<<10)
	for _, tc := range []struct {
		name       string
		response   string
		closeAfter bool // the server closes after the response
		want       float64
		wantErr    string // substring; empty means success
		reuse      bool   // the connection carries the second read too
	}{
		{name: "content-length", response: "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n12.5", want: 12.5, reuse: true},
		{name: "header case and spacing", response: "HTTP/1.1 200 OK\r\ncontent-LENGTH:\t 2 \r\nX-Other: 1\r\n\r\n42", want: 42, reuse: true},
		{name: "bare LF lines", response: "HTTP/1.1 200 OK\nContent-Length: 1\n\n5", want: 5, reuse: true},
		{name: "no reason phrase", response: "HTTP/1.1 200\r\nContent-Length: 1\r\n\r\n5", want: 5, reuse: true},
		{name: "empty body", response: "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", wantErr: "no output", reuse: true},
		{name: "first token of several", response: "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n \n3 4 five", want: 3, reuse: true},
		{name: "not a number", response: "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc", wantErr: `parse "abc"`, reuse: true},
		{name: "chunked", response: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\n1\r\n3\r\n2.5\r\n0\r\n\r\n", want: 12.5, reuse: true},
		{name: "chunked with extensions and trailers", response: "HTTP/1.1 200 OK\r\nTransfer-Encoding: Chunked\r\nTrailer: X-Sum\r\n\r\n2;name=value;flag\r\n99\r\n0;last\r\nX-Sum: 1\r\nX-More: 2\r\n\r\n", want: 99, reuse: true},
		{name: "chunked and content-length", response: "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n31\r\n0\r\n\r\n", want: 31},
		{name: "close-delimited", response: "HTTP/1.1 200 OK\r\n\r\n8.25\n", closeAfter: true, want: 8.25},
		{name: "HTTP/1.0", response: "HTTP/1.0 200 OK\r\nContent-Length: 1\r\n\r\n6", want: 6},
		{name: "HTTP/1.0 close-delimited", response: "HTTP/1.0 200 OK\r\n\r\n6", closeAfter: true, want: 6},
		{name: "connection: close", response: "HTTP/1.1 200 OK\r\nConnection: keep-alive, Close\r\nContent-Length: 1\r\n\r\n6", closeAfter: true, want: 6},
		{name: "1xx before the 200", response: "HTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\nHTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n4", want: 4, reuse: true},
		{name: "too many 1xx", response: strings.Repeat("HTTP/1.1 100 Continue\r\n\r\n", 6) + "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n4", wantErr: "too many 1xx"},
		{name: "body over the limit", response: fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(long), long), want: 7},
		{name: "chunked body over the limit", response: fmt.Sprintf("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(long), long), want: 7},
		{name: "close-delimited body over the limit", response: "HTTP/1.1 200 OK\r\n\r\n" + long, closeAfter: true, want: 7},
		{name: "body exactly at the limit", response: fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", agentBodyLimit, long[:agentBodyLimit]), want: 7, reuse: true},
		{name: "500", response: "HTTP/1.1 500 Internal Server Error\r\nContent-Length: 1\r\n\r\n9", wantErr: "status 500"},
		{name: "204", response: "HTTP/1.1 204 No Content\r\n\r\n", wantErr: "status 204"},
		{name: "redirect", response: "HTTP/1.1 302 Found\r\nLocation: http://elsewhere.example/v\r\nContent-Length: 0\r\n\r\n", wantErr: "status 302, redirects are not followed (Location: http://elsewhere.example/v)"},
		{name: "101", response: "HTTP/1.1 101 Switching Protocols\r\n\r\n", wantErr: "status 101"},
		{name: "conflicting content-lengths", response: "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n12", wantErr: "bad Content-Length"},
		{name: "repeated equal content-lengths", response: "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\n1", want: 1, reuse: true},
		{name: "content-length list", response: "HTTP/1.1 200 OK\r\nContent-Length: 1, 1\r\n\r\n1", wantErr: "bad Content-Length"},
		{name: "signed content-length", response: "HTTP/1.1 200 OK\r\nContent-Length: +1\r\n\r\n1", wantErr: "bad Content-Length"},
		{name: "unknown transfer coding", response: "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n", wantErr: "unsupported Transfer-Encoding"},
		{name: "HTTP/1.0 chunked", response: "HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", wantErr: "unsupported Transfer-Encoding"},
		{name: "bad chunk size", response: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n1\r\n0\r\n\r\n", wantErr: "malformed chunk size"},
		{name: "chunk without CRLF", response: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\n1xx0\r\n\r\n", wantErr: "malformed chunked encoding"},
		{name: "garbage", response: "SSH-2.0-OpenSSH_9.6\r\n", closeAfter: true, wantErr: "malformed status line"},
		{name: "short status line", response: "HTTP/1.1 20\r\n\r\n", wantErr: "malformed status line"},
		{name: "HTTP/2 status line", response: "HTTP/2.0 200 OK\r\nContent-Length: 1\r\n\r\n1", wantErr: "malformed status line"},
		{name: "folded header", response: "HTTP/1.1 200 OK\r\nX-A: b\r\n c\r\nContent-Length: 1\r\n\r\n1", wantErr: "malformed header line"},
		{name: "space before colon", response: "HTTP/1.1 200 OK\r\nContent-Length : 1\r\n\r\n1", wantErr: "malformed header line"},
		{name: "header line too long", response: "HTTP/1.1 200 OK\r\nX-A: " + strings.Repeat("a", 5000) + "\r\nContent-Length: 1\r\n\r\n1", wantErr: "line longer than"},
		{name: "header too long", response: "HTTP/1.1 200 OK\r\n" + strings.Repeat("X-A: "+strings.Repeat("a", 1000)+"\r\n", 70) + "Content-Length: 1\r\n\r\n1", wantErr: "bytes of header, chunk sizes and trailer"},
		{name: "truncated body", response: "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n1", closeAfter: true, wantErr: "unexpected EOF"},
		{name: "truncated header", response: "HTTP/1.1 200 OK\r\nContent-Le", closeAfter: true, wantErr: "unexpected EOF"},
		{name: "bytes after the response", response: "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n12", want: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newRawServer(t, patient, func(int, int) (string, bool) { return tc.response, tc.closeAfter })
			a := newTestHTTPAgent(t, srv.url()+"/v")
			for read := 1; read <= 2; read++ {
				v, err := a.Sample()
				switch {
				case tc.wantErr == "" && (err != nil || v != tc.want):
					t.Fatalf("read %d = %v, %v; want %v", read, v, err, tc.want)
				case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
					t.Fatalf("read %d = %v, %v; want an error containing %q", read, v, err, tc.wantErr)
				}
			}
			if want := map[bool]int{true: 1, false: 2}[tc.reuse]; srv.conns() != want {
				t.Errorf("two reads used %d connections, want %d", srv.conns(), want)
			}
			if got := a.pool.retries.Value(); got != 0 {
				t.Errorf("%d retries", got)
			}
		})
	}
}

// TestHTTPAgentRequest pins the request as the server receives it: origin
// form, Host as written in the source, userinfo turned into Basic
// credentials, and nothing that would invite an encoding the reader does not
// decode.
func TestHTTPAgentRequest(t *testing.T) {
	srv := newRawServer(t, patient, func(_, i int) (string, bool) {
		if i == 0 {
			return "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n1", false
		}
		return "HTTP/1.1 403 Forbidden\r\n\r\n", true
	})
	host := srv.ln.Addr().String()
	a := newTestHTTPAgent(t, "http://ops:s3cret%21@"+host+"/queue depth?of=a%20b#frag")
	if _, err := a.Sample(); err != nil {
		t.Fatal(err)
	}
	// ops:s3cret! in base64.
	want := "GET /queue%20depth?of=a%20b HTTP/1.1\r\nHost: " + host + "\r\nUser-Agent: volleyd\r\nAuthorization: Basic b3BzOnMzY3JldCE=\r\n\r\n"
	if got := srv.request(0); got != want {
		t.Errorf("request\n%q\nwant\n%q", got, want)
	}
	// The password stays out of errors.
	_, err := a.Sample()
	if err == nil || strings.Contains(err.Error(), "s3cret") || !strings.Contains(err.Error(), "ops:xxxxx@") {
		t.Errorf("error %v, want the source with its password redacted", err)
	}

	for _, source := range []string{"http://", "http:///path", "http://bücher.example/", "http://a b/", "https://host:port/"} {
		if _, err := newHTTPAgent(source, a.pool); err == nil {
			t.Errorf("source %q accepted", source)
		}
	}

	// Host says what the server is called, the address where it is dialled.
	for _, tc := range []struct{ source, host, addr, server string }{
		{"http://agent.example/v", "agent.example", "agent.example:80", ""},
		{"http://agent.example:/v", "agent.example", "agent.example:80", ""},
		{"https://agent.example:/v", "agent.example", "agent.example:443", "agent.example"},
		{"https://agent.example:8443/v", "agent.example:8443", "agent.example:8443", "agent.example"},
		{"http://[::1]:9100/v", "[::1]:9100", "[::1]:9100", ""},
		{"https://[fe80::1%25eth0]/v", "[fe80::1]", "[fe80::1%eth0]:443", "fe80::1"},
	} {
		a, err := newHTTPAgent(tc.source, a.pool)
		if err != nil {
			t.Errorf("%s: %v", tc.source, err)
			continue
		}
		if want := "GET /v HTTP/1.1\r\nHost: " + tc.host + "\r\n"; !strings.HasPrefix(string(a.req), want) || a.addr != tc.addr || a.server != tc.server {
			t.Errorf("%s: request %q, dialled at %q, verified as %q; want Host %q, %q, %q", tc.source, a.req, a.addr, a.server, tc.host, tc.addr, tc.server)
		}
	}
}

// TestHTTPAgentRetriesOnceOnAStaleConnection: a kept connection the server
// has meanwhile closed costs one repeat of the request on a fresh connection,
// invisibly, whether the server closes after every response without saying
// so or closes connections that sit idle; a fresh connection that fails the
// same way is an error, not a second retry.
func TestHTTPAgentRetriesOnceOnAStaleConnection(t *testing.T) {
	const ok = "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n3"
	t.Run("server closes after every response", func(t *testing.T) {
		srv := newRawServer(t, patient, func(int, int) (string, bool) { return ok, true })
		a := newTestHTTPAgent(t, srv.url())
		const reads = 5
		for i := 0; i < reads; i++ {
			// Let the server's close arrive: the write then still succeeds
			// and the read finds the connection closed, or the write fails.
			time.Sleep(5 * time.Millisecond)
			if v, err := a.Sample(); err != nil || v != 3 {
				t.Fatalf("read %d = %v, %v", i, v, err)
			}
		}
		if got := a.pool.retries.Value(); got != reads-1 {
			t.Errorf("%d retries over %d reads, want one for each read after the first", got, reads)
		}
		if got := a.pool.dials.Value(); got != reads {
			t.Errorf("%d dials over %d reads", got, reads)
		}
	})
	t.Run("server closes idle connections", func(t *testing.T) {
		srv := newRawServer(t, 20*time.Millisecond, func(int, int) (string, bool) { return ok, false })
		a := newTestHTTPAgent(t, srv.url())
		for i := 0; i < 3; i++ {
			if _, err := a.Sample(); err != nil {
				t.Fatal(err)
			}
		}
		if got := a.pool.dials.Value(); got != 1 {
			t.Fatalf("%d dials for three reads in a row, want 1", got)
		}
		awaitServerClose(t, a, io.EOF)
		if v, err := a.Sample(); err != nil || v != 3 {
			t.Fatalf("read after the server closed the idle connection = %v, %v", v, err)
		}
		if retries, dials := a.pool.retries.Value(), a.pool.dials.Value(); retries != 1 || dials != 2 {
			t.Errorf("%d retries and %d dials, want 1 and 2", retries, dials)
		}
	})
	t.Run("server says 408 as it closes idle connections", func(t *testing.T) {
		// nginx and haproxy do: the notice is on the kept connection when the
		// next request is written to it, and reads as that request's answer.
		srv := newRawServer(t, 20*time.Millisecond, func(int, int) (string, bool) { return ok, false })
		srv.onIdle = "HTTP/1.1 408 Request Time-out\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
		a := newTestHTTPAgent(t, srv.url())
		if _, err := a.Sample(); err != nil {
			t.Fatal(err)
		}
		awaitServerClose(t, a, nil)
		if v, err := a.Sample(); err != nil || v != 3 {
			t.Fatalf("read after the server timed the idle connection out = %v, %v", v, err)
		}
		if retries, dials, errs := a.pool.retries.Value(), a.pool.dials.Value(), a.pool.readErrors.Value(); retries != 1 || dials != 2 || errs != 0 {
			t.Errorf("%d retries, %d dials and %d read errors, want 1, 2 and 0", retries, dials, errs)
		}
	})
	t.Run("a 408 on a fresh connection is an answer", func(t *testing.T) {
		srv := newRawServer(t, patient, func(int, int) (string, bool) {
			return "HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\n\r\n", false
		})
		a := newTestHTTPAgent(t, srv.url())
		if _, err := a.Sample(); err == nil || !strings.Contains(err.Error(), "status 408") {
			t.Fatalf("read = %v, want an error naming status 408", err)
		}
		if retries, dials := a.pool.retries.Value(), a.pool.dials.Value(); retries != 0 || dials != 1 {
			t.Errorf("%d retries and %d dials, want 0 and 1", retries, dials)
		}
	})
	t.Run("a fresh connection is not retried", func(t *testing.T) {
		// The first connection answers once and closes; every later one
		// closes without answering.
		srv := newRawServer(t, patient, func(conn, _ int) (string, bool) {
			if conn == 0 {
				return ok, true
			}
			return "", true
		})
		a := newTestHTTPAgent(t, srv.url())
		if _, err := a.Sample(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		if _, err := a.Sample(); err == nil {
			t.Fatal("read from a server that closes without answering succeeded")
		}
		if retries, dials := a.pool.retries.Value(), a.pool.dials.Value(); retries != 1 || dials != 2 {
			t.Errorf("%d retries and %d dials, want 1 and 2: the retry's own failure is final", retries, dials)
		}
		if got := a.pool.readErrors.Value(); got != 1 {
			t.Errorf("%d read errors, want 1", got)
		}
	})
}

// awaitServerClose waits until what the server did to the one idle connection
// a's pool holds has reached this side: its close (io.EOF), or bytes it wrote
// first (nil).
func awaitServerClose(t *testing.T, a *httpAgent, want error) {
	t.Helper()
	a.pool.mu.Lock()
	list := a.pool.idle[a.dest]
	a.pool.mu.Unlock()
	if len(list) != 1 {
		t.Fatalf("%d idle connections, want 1", len(list))
	}
	// Reading is how a client learns of either, and the pool never reads an
	// idle connection; the test does it for it.
	_ = list[0].c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := list[0].br.Peek(1); err != want {
		t.Fatalf("idle connection: %v, want %v", err, want)
	}
}

// TestHTTPAgentDoesNotFollowRedirectsOrProxies: two of the three things the
// reader deliberately leaves out (the third, HTTP/2, is in the TLS test).
func TestHTTPAgentDoesNotFollowRedirectsOrProxies(t *testing.T) {
	var target atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/target" {
			target.Add(1)
			fmt.Fprint(w, "1")
			return
		}
		http.Redirect(w, r, "/target", http.StatusMovedPermanently)
	}))
	defer srv.Close()
	// A proxy that would break every read sent its way.
	t.Setenv("HTTP_PROXY", "http://127.0.0.1:1")
	t.Setenv("http_proxy", "http://127.0.0.1:1")
	a := newTestHTTPAgent(t, srv.URL+"/moved")
	_, err := a.Sample()
	if err == nil || !strings.Contains(err.Error(), "status 301") || !strings.Contains(err.Error(), "Location: /target") {
		t.Errorf("read of a redirecting source: %v, want an error naming the status and the Location", err)
	}
	if n := target.Load(); n != 0 {
		t.Errorf("the redirect was followed %d times", n)
	}
	if _, err := newTestHTTPAgent(t, srv.URL+"/target").Sample(); err != nil {
		t.Errorf("read with HTTP_PROXY set: %v", err)
	}
}

// TestHTTPAgentTLS: https sources verify the server against the roots (the
// test's, through the pool's hook; the system's otherwise), by name, and
// speak HTTP/1.1 to a server that would rather speak HTTP/2.
func TestHTTPAgentTLS(t *testing.T) {
	var mu sync.Mutex
	var protos []string
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		protos = append(protos, r.Proto)
		mu.Unlock()
		fmt.Fprint(w, "21")
	}))
	srv.EnableHTTP2 = true
	// The handshakes refused below are the server's to log, not this test's.
	srv.Config.ErrorLog = log.New(io.Discard, "", 0)
	srv.StartTLS()
	defer srv.Close()

	pool := newAgentPool(nil)
	defer pool.close()
	pool.roots = x509.NewCertPool()
	pool.roots.AddCert(srv.Certificate())
	a, err := newHTTPAgent(srv.URL, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if v, err := a.Sample(); err != nil || v != 21 {
			t.Fatalf("https read = %v, %v", v, err)
		}
	}
	if got := pool.dials.Value(); got != 1 {
		t.Errorf("%d dials for three https reads, want 1", got)
	}
	mu.Lock()
	if len(protos) != 3 || protos[0] != "HTTP/1.1" {
		t.Errorf("the server saw %v, want three HTTP/1.1 requests", protos)
	}
	mu.Unlock()

	// The certificate is for 127.0.0.1 and example.com, not for localhost.
	_, port, _ := net.SplitHostPort(srv.Listener.Addr().String())
	byName, err := newHTTPAgent("https://localhost:"+port, pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := byName.Sample(); err == nil || !strings.Contains(err.Error(), "tls handshake") || !strings.Contains(err.Error(), "localhost") {
		t.Errorf("read under a name the certificate does not carry: %v, want a handshake error", err)
	}
	// And not signed by anything the system trusts.
	system, err := newHTTPAgent(srv.URL, newAgentPool(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := system.Sample(); err == nil || !strings.Contains(err.Error(), "tls handshake") {
		t.Errorf("read of a self-signed server against the system roots: %v, want a handshake error", err)
	}
}

// TestHTTPAgentDeadline: one deadline covers the exchange, wherever it
// stalls, and a timeout is not retried.
func TestHTTPAgentDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	shortTimeout(t, timeout)
	const ok = "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n3"
	// Each server answers a connection's first request and stalls in its
	// second.
	for name, respond := range map[string]func(int, int) (string, bool){
		"no answer": func(_, i int) (string, bool) {
			if i > 0 {
				time.Sleep(4 * timeout)
			}
			return ok, false
		},
		"half a body": func(_, i int) (string, bool) {
			if i > 0 {
				return "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n1", false
			}
			return ok, false
		},
	} {
		t.Run(name, func(t *testing.T) {
			srv := newRawServer(t, patient, respond)
			a := newTestHTTPAgent(t, srv.url())
			if _, err := a.Sample(); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err := a.Sample()
			if err == nil || !strings.Contains(err.Error(), "timeout") {
				t.Fatalf("read from a stalled server: %v, want a timeout", err)
			}
			if took := time.Since(start); took < timeout || took > 3*timeout {
				t.Errorf("gave up after %v, want about %v", took, timeout)
			}
			if got := a.pool.retries.Value(); got != 0 {
				t.Errorf("a timeout on a kept connection was retried %d times", got)
			}
		})
	}
}

// TestHTTPAgentPoolIdleRule: a connection idle for agentIdleTimeout is closed,
// not reused, by take if its destination is read again and by sweep if it is
// not; at most agentWindow are kept per destination.
func TestHTTPAgentPoolIdleRule(t *testing.T) {
	reg := volley.NewMetrics()
	p := newAgentPool(reg)
	closed := func(c *agentConn) bool {
		_, err := c.c.Write([]byte("x"))
		return err != nil
	}
	conn := func() *agentConn {
		a, b := net.Pipe()
		go func() { _, _ = io.Copy(io.Discard, b) }()
		t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
		return &agentConn{c: a}
	}
	t0 := time.Now()
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }

	p.sweep(at(0))
	old, mid, fresh, other := conn(), conn(), conn(), conn()
	p.put("d", old, at(0))
	p.put("gone", other, at(5))
	p.put("d", mid, at(50))
	p.put("d", fresh, at(80))
	// Sweeps look once per idle timeout.
	p.sweep(at(89))
	if closed(old) || closed(other) || p.nIdle != 4 {
		t.Errorf("a sweep 89 s after the last closed a connection (nIdle %d)", p.nIdle)
	}
	// 100 s on, the two oldest have been idle too long, one of them the only
	// connection to a destination nobody reads any more.
	p.sweep(at(100))
	if !closed(old) || !closed(other) || closed(mid) || closed(fresh) {
		t.Errorf("after the sweep at 100 s: closed old=%v other=%v mid=%v fresh=%v, want the first two", closed(old), closed(other), closed(mid), closed(fresh))
	}
	if _, ok := p.idle["gone"]; ok || p.nIdle != 2 || len(p.idle["d"]) != 2 {
		t.Errorf("after the sweep at 100 s: %d idle, %d to d, the emptied destination still listed = %v", p.nIdle, len(p.idle["d"]), ok)
	}
	if got := p.take("d", at(101)); got != fresh {
		t.Error("take did not return the most recently used connection")
	}
	if got := p.take("d", at(139)); got != mid || !mid.reused {
		t.Error("take did not return the connection idle for 89 s, marked as used before")
	}
	p.put("d", mid, at(139))
	p.put("e", fresh, at(139))
	if got := p.take("d", at(139+90)); got != nil || !closed(mid) {
		t.Errorf("take after 90 s idle = %v (closed %v), want nil and the connection closed", got, closed(mid))
	}
	if p.nIdle != 1 {
		t.Errorf("nIdle = %d with one connection idle", p.nIdle)
	}

	var kept []*agentConn
	for i := 0; i < agentWindow+3; i++ {
		c := conn()
		kept = append(kept, c)
		p.put("f", c, at(200))
	}
	for i, c := range kept {
		if closed(c) != (i >= agentWindow) {
			t.Errorf("connection %d of %d put: closed %v", i, len(kept), closed(c))
		}
	}
	var scrape bytes.Buffer
	reg.WritePrometheus(&scrape)
	if want := fmt.Sprintf("volley_agent_idle_conns %d\n", agentWindow+1); !strings.Contains(scrape.String(), want) {
		t.Errorf("scrape lacks %q", want)
	}
	p.close()
	late := conn()
	p.put("f", late, at(201))
	if !closed(kept[0]) || !closed(fresh) || !closed(late) || p.nIdle != 0 {
		t.Error("close left a connection open, or a connection put afterwards was kept")
	}
}

// TestHTTPAgentSampleZeroAlloc: on a warm connection a read allocates
// nothing, in one piece or in two.
func TestHTTPAgentSampleZeroAlloc(t *testing.T) {
	url := newQuietServer(t, "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\n0.125")
	a := newTestHTTPAgent(t, url+"/s/1")
	read := func() {
		if v, err := a.Sample(); err != nil || v != 0.125 {
			t.Fatalf("Sample = %v, %v", v, err)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Errorf("Sample allocates %.2f times on a warm connection, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { a.Prefetch(); read() }); allocs != 0 {
		t.Errorf("Prefetch and Sample allocate %.2f times on a warm connection, want 0", allocs)
	}
	if got := a.pool.dials.Value(); got != 1 {
		t.Errorf("%d dials, want 1", got)
	}
	if got := a.pool.reads.Count(); got != 1+2*201 {
		t.Errorf("volley_stage_seconds{stage=\"agent_read\"} counted %d reads, want %d", got, 1+2*201)
	}
}

// TestHTTPAgentPrefetch: a prefetched read is out until Sample, which then
// reads the response and does not write again; a second Prefetch while one
// is out does nothing; a failed Prefetch is reported by the next Sample and
// forgotten by the one after.
func TestHTTPAgentPrefetch(t *testing.T) {
	var mu sync.Mutex
	served := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		served++
		n := served
		mu.Unlock()
		fmt.Fprint(w, n)
	}))
	a := newTestHTTPAgent(t, srv.URL)
	a.Prefetch()
	a.Prefetch()
	waitFor(t, 2*time.Second, "the prefetched request to be served", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return served == 1
	})
	if v, err := a.Sample(); err != nil || v != 1 {
		t.Fatalf("Sample after Prefetch = %v, %v; want the prefetched response, 1", v, err)
	}
	if v, err := a.Sample(); err != nil || v != 2 {
		t.Fatalf("Sample with nothing out = %v, %v; want a new read, 2", v, err)
	}
	srv.Close()
	a.pool.close() // so that Prefetch has to dial
	a.Prefetch()
	if a.err == nil {
		t.Fatal("Prefetch to a closed server recorded no error")
	}
	if _, err := a.Sample(); err == nil || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("Sample after a failed Prefetch: %v, want its error", err)
	}
	if a.conn != nil || a.err != nil {
		t.Error("the failed exchange was not forgotten")
	}
}
