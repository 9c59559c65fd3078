// The HTTP agent: how a sample leaves the process. One pre-encoded GET on a
// kept connection, the response parsed in place, nothing allocated once the
// connection is warm; the read is split in two (Prefetch writes, Sample
// reads) so the tick loop can overlap the round trips of the monitors it is
// about to tick (DESIGN.md §9, "The agent read").
package main

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"volley"
	"volley/internal/host"
)

const (
	// agentWindow is how many idle connections the pool keeps per
	// destination: the tick's walk never has more reads out than it looks
	// ahead (host.ReadAhead).
	agentWindow = host.ReadAhead
	// agentBodyLimit is how much of a response body is looked at.
	agentBodyLimit = 1 << 16
	// agentLineLimit bounds what of one response is read as lines and is not
	// body: status lines, header fields, chunk sizes, trailer fields.
	agentLineLimit = 1 << 16
	// agentMaxInterim is how many 1xx responses may precede the final one.
	agentMaxInterim = 5
)

// agentTimeout bounds one agent read end to end — an HTTP exchange from the
// dial to the last body byte, a cmd: source from fork to exit. It is not a
// setting: tests shorten it to watch a timeout happen.
var agentTimeout = 10 * time.Second

// agentIdleTimeout is how long a connection may sit idle in the pool and
// still be reused; most servers drop an idle connection later than this. Not
// a setting either: tests shorten it to watch the pool let go.
var agentIdleTimeout = 90 * time.Second

// stageSecondsHelp describes volley_stage_seconds, whichever stage registers
// it first.
const stageSecondsHelp = "Time the daemon spent in one stage of its work, per unit of that stage's work."

// agentReadBuckets are the volley_stage_seconds bounds for agent reads: a
// loopback exchange takes tens of microseconds, a timed-out one agentTimeout.
var agentReadBuckets = []float64{25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1, 2.5, 5, 10}

// agentPool is what a daemon's HTTP agents share: the idle connections, kept
// per destination (scheme and host:port) because sources on one host differ
// only in path, and the instruments, which are per process and not per
// monitor so that the scrape does not grow with the monitors. Connections are
// dialled when a read first needs one, never at admission. No goroutine and
// no timer watches them: a connection idle too long is found and closed by
// the next take on its destination, or, where a task evicted or handed over
// has left a destination nobody reads any more, by the tick loop's sweep.
//
// Lock order: Monitor.mu → agentPool.mu (agents are driven under their
// monitor's lock), and registry lock → agentPool.mu (the idle gauge). mu is
// innermost and is never held across I/O.
type agentPool struct {
	roots *x509.CertPool // https verifies against these; nil means the system's. Set by tests.

	reads      *volley.Histogram
	dials      *volley.Counter
	retries    *volley.Counter
	readErrors *volley.Counter

	mu    sync.Mutex
	idle  map[string][]*agentConn // by destination, longest idle first; nil once closed
	nIdle int
	swept time.Time // when sweep last looked
}

func newAgentPool(reg *volley.Metrics) *agentPool {
	p := &agentPool{
		reads:      reg.Histogram("volley_stage_seconds", stageSecondsHelp, agentReadBuckets, "stage", "agent_read"),
		dials:      reg.Counter("volley_agent_dials_total", "Connections opened by HTTP agents."),
		retries:    reg.Counter("volley_agent_retries_total", "HTTP agent requests repeated on a fresh connection because a kept one had gone away."),
		readErrors: reg.Counter("volley_agent_read_errors_total", "HTTP agent reads that produced no value."),
		idle:       make(map[string][]*agentConn),
	}
	reg.GaugeFunc("volley_agent_idle_conns", "Idle connections kept by HTTP agents.", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(p.nIdle)
	})
	return p
}

// take returns the most recently used idle connection to dest, or nil. If
// even that one has been idle too long, so have all, and they are closed.
func (p *agentPool) take(dest string, now time.Time) *agentConn {
	var c *agentConn
	var stale []*agentConn
	p.mu.Lock()
	if list := p.idle[dest]; len(list) > 0 {
		last := len(list) - 1
		if now.Sub(list[last].idleSince) < agentIdleTimeout {
			c, list[last] = list[last], nil
			p.idle[dest] = list[:last]
			p.nIdle--
		} else {
			stale = list
			delete(p.idle, dest)
			p.nIdle -= len(list)
		}
	}
	p.mu.Unlock()
	closeConns(stale)
	return c
}

// put keeps c for the next read of dest, unless the destination already has
// agentWindow idle connections or the pool is closed.
func (p *agentPool) put(dest string, c *agentConn, now time.Time) {
	c.idleSince, c.reused = now, true
	p.mu.Lock()
	list := p.idle[dest]
	keep := p.idle != nil && len(list) < agentWindow
	if keep {
		p.idle[dest] = append(list, c)
		p.nIdle++
	}
	p.mu.Unlock()
	if !keep {
		_ = c.c.Close() // nothing is in flight on it
	}
}

// sweep closes the connections that have been idle too long, whatever their
// destination: take, always reaching for the newest, never meets the old end
// of a list, and nothing at all reaches for a destination whose task was
// evicted or handed to another shard. The daemons call it every tick; it
// looks once per agentIdleTimeout, so a connection is closed before it has
// been idle for two.
func (p *agentPool) sweep(now time.Time) {
	var stale []*agentConn
	p.mu.Lock()
	if now.Sub(p.swept) >= agentIdleTimeout {
		p.swept = now
		for dest, list := range p.idle {
			old := 0
			for old < len(list) && now.Sub(list[old].idleSince) >= agentIdleTimeout {
				old++
			}
			stale = append(stale, list[:old]...)
			p.nIdle -= old
			switch {
			case old == len(list):
				delete(p.idle, dest)
			case old > 0:
				p.idle[dest] = slices.Delete(list, 0, old)
			}
		}
	}
	p.mu.Unlock()
	closeConns(stale)
}

// close closes the idle connections; a connection returned later is closed
// on arrival.
func (p *agentPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.nIdle = nil, 0
	p.mu.Unlock()
	for _, list := range idle {
		closeConns(list)
	}
}

func closeConns(conns []*agentConn) {
	for _, c := range conns {
		_ = c.c.Close() // nothing was in flight on it
	}
}

// agentConn is one kept connection with the buffers a response is parsed in.
// They stay with the connection, not with the agent, so a daemon holds as
// many as it has connections, not as many as it has monitors.
type agentConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte // the last response's body, up to agentBodyLimit

	idleSince time.Time
	reused    bool // has carried an exchange before this one
	answered  bool // a byte of the current response has arrived
	lineBytes int  // bytes of the current response read as lines, against agentLineLimit
}

// head is what the reader needs of a response's status line and header.
type head struct {
	status   int
	http10   bool
	close    bool   // Connection: close
	chunked  bool   // Transfer-Encoding: chunked
	length   int64  // Content-Length, -1 when absent
	location string // Location of a 3xx, for the error
}

// readResponse reads one response: the final status, the first
// agentBodyLimit bytes of a 200's body into c.body, and whether the
// connection stands right after the response's last byte and may carry
// another request. The body of any other status is not read, so such a
// connection is not reusable.
//
// The subset of HTTP/1.x understood is the one http.ReadResponse accepts,
// less what a numeric endpoint has no use for; whatever both accept they read
// alike (FuzzHTTPAgentResponse). Lines end in LF or CRLF and are at most as
// long as the read buffer; header field names are tokens; folded header lines
// are refused; Content-Length must be one decimal number, however often it is
// repeated; the only transfer coding is chunked, on HTTP/1.1.
func (c *agentConn) readResponse() (h head, reuse bool, err error) {
	c.body = c.body[:0]
	c.answered, c.lineBytes = false, 0
	if _, err := c.br.Peek(1); err != nil {
		return h, false, err
	}
	c.answered = true
	for interim := 0; ; interim++ {
		if h, err = c.readHead(); err != nil {
			return h, false, err
		}
		// A 1xx announces the real response; 101 would switch protocols,
		// which nothing here asked for, and is final.
		if h.status/100 != 1 || h.status == 101 {
			break
		}
		if interim == agentMaxInterim {
			return h, false, errors.New("too many 1xx responses")
		}
	}
	if h.status != 200 {
		return h, false, nil
	}
	reuse = !h.http10 && !h.close
	switch {
	case h.chunked:
		// Both framings at once is what request smuggling looks like
		// (RFC 9112 §6.3): chunked wins, the connection is not trusted again.
		reuse = reuse && h.length < 0
		whole, err := c.readChunked()
		return h, reuse && whole, err
	case h.length >= 0:
		n := min(h.length, agentBodyLimit)
		if err := c.readBody(int(n)); err != nil {
			return h, false, err
		}
		return h, reuse && n == h.length, nil
	default:
		// Delimited by the close of the connection.
		err := c.readBody(agentBodyLimit)
		if err == io.ErrUnexpectedEOF {
			err = nil
		}
		return h, false, err
	}
}

// readLine returns the next line without its line ending. The slice is only
// valid until the next read.
func (c *agentConn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	c.lineBytes += len(line)
	switch {
	case err == bufio.ErrBufferFull:
		return nil, fmt.Errorf("line longer than %d bytes", c.br.Size())
	case err == io.EOF:
		return nil, io.ErrUnexpectedEOF
	case err != nil:
		return nil, err
	case c.lineBytes > agentLineLimit:
		return nil, fmt.Errorf("more than %d bytes of header, chunk sizes and trailer", agentLineLimit)
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// readHead reads a status line and the header fields after it.
func (c *agentConn) readHead() (head, error) {
	h := head{length: -1}
	line, err := c.readLine()
	if err != nil {
		return h, err
	}
	// "HTTP/1.x SSS" and then nothing or a space and the reason.
	const prefix = "HTTP/1."
	if len(line) < 12 || string(line[:7]) != prefix || (line[7] != '0' && line[7] != '1') || line[8] != ' ' ||
		!isDigit(line[9]) || !isDigit(line[10]) || !isDigit(line[11]) || (len(line) > 12 && line[12] != ' ') {
		return h, fmt.Errorf("malformed status line %q", line)
	}
	h.http10 = line[7] == '0'
	h.status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	for {
		line, err := c.readLine()
		if err != nil {
			return h, err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !isToken(line[:colon]) {
			return h, fmt.Errorf("malformed header line %q", line)
		}
		name, value := line[:colon], trimOWS(line[colon+1:])
		switch {
		case asciiEqualFold(name, "content-length"):
			n, ok := parseLength(value)
			if !ok || (h.length >= 0 && n != h.length) {
				return h, fmt.Errorf("bad Content-Length %q", value)
			}
			h.length = n
		case asciiEqualFold(name, "transfer-encoding"):
			if h.chunked || h.http10 || !asciiEqualFold(value, "chunked") {
				return h, fmt.Errorf("unsupported Transfer-Encoding %q", value)
			}
			h.chunked = true
		case asciiEqualFold(name, "connection"):
			for len(value) > 0 {
				var tok []byte
				tok, value, _ = bytes.Cut(value, []byte{','})
				if asciiEqualFold(trimOWS(tok), "close") {
					h.close = true
				}
			}
		case h.status/100 == 3 && asciiEqualFold(name, "location"):
			h.location = string(value)
		}
	}
	return h, nil
}

// readBody appends the next n bytes of the connection to c.body, growing it
// as the bytes arrive rather than by what the header promised. Fewer than n
// is io.ErrUnexpectedEOF.
func (c *agentConn) readBody(n int) error {
	for n > 0 {
		if len(c.body) == cap(c.body) {
			c.body = slices.Grow(c.body, 1)
		}
		room := c.body[len(c.body):min(cap(c.body), len(c.body)+n)]
		m, err := c.br.Read(room)
		c.body = c.body[:len(c.body)+m]
		n -= m
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil && n > 0 {
			return err
		}
	}
	return nil
}

// readChunked reads a chunked body and its trailer section. whole is false
// when the body went past agentBodyLimit and the rest was left unread.
func (c *agentConn) readChunked() (whole bool, err error) {
	for {
		line, err := c.readLine()
		if err != nil {
			return false, err
		}
		size, _, _ := bytes.Cut(line, []byte{';'}) // chunk extensions carry nothing we use
		var n int
		if len(size) == 0 || len(size) > 7 { // 7 hex digits is already 4096 times the limit
			return false, fmt.Errorf("malformed chunk size %q", line)
		}
		for _, d := range size {
			v, ok := hexValue(d)
			if !ok {
				return false, fmt.Errorf("malformed chunk size %q", line)
			}
			n = n<<4 | v
		}
		if n == 0 {
			break
		}
		take := min(n, agentBodyLimit-len(c.body))
		if err := c.readBody(take); err != nil {
			return false, err
		}
		if take < n {
			return false, nil
		}
		var crlf [2]byte
		if _, err := io.ReadFull(c.br, crlf[:]); err != nil || crlf != [2]byte{'\r', '\n'} {
			return false, errors.Join(errors.New("malformed chunked encoding"), err)
		}
	}
	// The trailer section: fields nobody reads, up to an empty line.
	for {
		line, err := c.readLine()
		if err != nil {
			return false, err
		}
		if len(line) == 0 {
			return true, nil
		}
	}
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

func hexValue(b byte) (int, bool) {
	switch {
	case isDigit(b):
		return int(b - '0'), true
	case 'a' <= b && b <= 'f':
		return int(b-'a') + 10, true
	case 'A' <= b && b <= 'F':
		return int(b-'A') + 10, true
	}
	return 0, false
}

// isToken reports whether b is an RFC 9110 token, which a field name must be.
func isToken(b []byte) bool {
	for _, c := range b {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || isDigit(c) || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	return len(b) > 0
}

// asciiEqualFold reports whether b is lower, which is in lower case, under
// ASCII case folding only (bytes.EqualFold also folds U+212A to k).
func asciiEqualFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// trimOWS trims the optional white space around a field value.
func trimOWS(b []byte) []byte { return bytes.Trim(b, " \t") }

// parseLength parses a Content-Length: decimal digits only, and few enough
// of them not to overflow.
func parseLength(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, d := range b {
		if !isDigit(d) {
			return 0, false
		}
		n = n*10 + int64(d-'0')
	}
	return n, true
}

// httpAgent reads one http(s) source. It is driven under its monitor's lock
// (or, in single-signal mode, by the one sampling loop), so it has none of
// its own; what it shares with other agents is in the pool.
//
// Deliberately not done: redirects are not followed (a 3xx is an error that
// names the Location, so the source can be corrected), HTTP_PROXY and
// HTTPS_PROXY are not consulted, and HTTP/2 is not spoken (https offers
// http/1.1 alone in ALPN).
type httpAgent struct {
	pool   *agentPool
	name   string // the source with any password redacted, for errors
	dest   string // pool key: scheme://host:port
	addr   string // host:port to dial
	server string // TLS server name; empty for http
	req    []byte // the whole request, encoded once

	// The exchange in flight, if any: the request is written on conn, or
	// could not be and err says why; the next Sample consumes either.
	conn     *agentConn
	err      error
	deadline time.Time     // of the exchange: dial, write, header and body
	busy     time.Duration // spent in the exchange so far
}

// Without Prefetch the agent would still read, one round trip after another.
var _ volley.Prefetcher = (*httpAgent)(nil)

func newHTTPAgent(source string, pool *agentPool) (*httpAgent, error) {
	u, err := url.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("parse source: %w", err)
	}
	host, port := u.Hostname(), u.Port()
	if host == "" {
		return nil, fmt.Errorf("source %q names no host", u.Redacted())
	}
	for i := 0; i < len(host); i++ {
		if host[i] >= 0x80 {
			return nil, fmt.Errorf("source %q: host is not ASCII (write an internationalized name in its xn-- form)", u.Redacted())
		}
	}
	// What the server is called, as against where it is dialled: an IPv6 zone
	// means something on this host only (RFC 6874), so neither the Host field
	// nor the certificate check carries it, and a port left empty
	// ("http://host:/") is no port — as net/http has it.
	called, _, _ := strings.Cut(host, "%")
	a := &httpAgent{pool: pool, name: u.Redacted()}
	hostField := called
	if strings.Contains(called, ":") {
		hostField = "[" + called + "]"
	}
	switch {
	case port != "":
		hostField += ":" + port
	case u.Scheme == "https":
		port = "443"
	default:
		port = "80"
	}
	if u.Scheme == "https" {
		a.server = called
	}
	a.addr = net.JoinHostPort(host, port)
	a.dest = u.Scheme + "://" + a.addr
	req := "GET " + u.RequestURI() + " HTTP/1.1\r\nHost: " + hostField + "\r\nUser-Agent: volleyd\r\n"
	if u.User != nil {
		password, _ := u.User.Password()
		req += "Authorization: Basic " + base64.StdEncoding.EncodeToString([]byte(u.User.Username()+":"+password)) + "\r\n"
	}
	a.req = []byte(req + "\r\n")
	return a, nil
}

// Prefetch implements volley.Prefetcher: it writes the request, unless one is
// already out, and leaves the response for Sample.
func (a *httpAgent) Prefetch() {
	if a.conn != nil || a.err != nil {
		return
	}
	start := time.Now()
	a.deadline = start.Add(agentTimeout)
	a.conn, a.err = a.send(a.pool.take(a.dest, start))
	a.busy = time.Since(start)
}

// Sample implements volley.Agent: it reads the response to the request
// Prefetch wrote, writing it first if Prefetch was not called.
func (a *httpAgent) Sample() (float64, error) {
	a.Prefetch()
	c, err := a.conn, a.err
	a.conn, a.err = nil, nil
	var v float64
	if err == nil {
		start := time.Now()
		// A request that was out while the walk waited a whole timeout for
		// a neighbour comes to be read with its own deadline behind it, and
		// a read past its deadline fails without looking at what has
		// arrived. An answer that is here is still an answer, so a read is
		// always given a hundredth of the timeout: agents stalled together
		// cost one timeout and a hundredth for each after the first.
		if late := start.Add(agentTimeout / 100); late.After(a.deadline) {
			a.deadline = late
			_ = c.c.SetDeadline(late) // as in send
		}
		v, err = a.receive(c)
		a.busy += time.Since(start)
	}
	a.pool.reads.Observe(a.busy.Seconds())
	if err != nil {
		a.pool.readErrors.Inc()
		return 0, fmt.Errorf("GET %s: %w", a.name, err)
	}
	return v, nil
}

// send writes the request on c, or on a new connection when c is nil. A kept
// connection the server has since closed may fail the write; that is retried
// once on a new one, as is the same discovery made at the first read
// (receive) — what net/http does for a request it can safely repeat.
func (a *httpAgent) send(c *agentConn) (*agentConn, error) {
	for {
		if c == nil {
			var err error
			if c, err = a.dial(); err != nil {
				return nil, err
			}
		}
		// The one deadline of the exchange. If it cannot be set the
		// connection is dead, which the write reports.
		_ = c.c.SetDeadline(a.deadline)
		_, err := c.c.Write(a.req)
		if err == nil {
			return c, nil
		}
		_ = c.c.Close() // the write's error is the one to report
		if !c.reused || errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, err
		}
		a.pool.retries.Inc()
		c = nil
	}
}

func (a *httpAgent) dial() (*agentConn, error) {
	a.pool.dials.Inc()
	d := net.Dialer{Deadline: a.deadline}
	nc, err := d.Dial("tcp", a.addr)
	if err != nil {
		return nil, err
	}
	if a.server != "" {
		_ = nc.SetDeadline(a.deadline) // as in send
		tc := tls.Client(nc, &tls.Config{ServerName: a.server, RootCAs: a.pool.roots, NextProtos: []string{"http/1.1"}})
		if err := tc.Handshake(); err != nil {
			_ = nc.Close() // the handshake's error is the one to report
			return nil, fmt.Errorf("tls handshake with %s: %w", a.addr, err)
		}
		nc = tc
	}
	return &agentConn{c: nc, br: bufio.NewReader(nc), body: make([]byte, 0, 512)}, nil
}

// receive reads the response on c and gives the connection back to the pool
// or closes it.
func (a *httpAgent) receive(c *agentConn) (float64, error) {
	h, reuse, err := c.readResponse()
	// What a kept connection that the server has given up looks like from
	// here: it went away before a byte of the response, or the server's notice
	// that it was closing an idle connection (a 408, from nginx or haproxy)
	// was on its way when the request was written and reads as the answer.
	gone := err != nil && !c.answered && !errors.Is(err, os.ErrDeadlineExceeded)
	if c.reused && (gone || err == nil && h.status == 408) {
		_ = c.c.Close() // already broken
		a.pool.retries.Inc()
		if c, err = a.send(nil); err != nil {
			return 0, err
		}
		h, reuse, err = c.readResponse()
	}
	var v float64
	switch {
	case err != nil:
	case h.status/100 == 3:
		err = fmt.Errorf("status %d, redirects are not followed (Location: %s)", h.status, h.location)
	case h.status != 200:
		err = fmt.Errorf("status %d", h.status)
	default:
		// Before the connection, and with it the body buffer, is given up.
		v, err = parseNumber(c.body)
	}
	// Bytes after the response's last are not an answer to anything asked.
	if reuse && c.br.Buffered() == 0 {
		a.pool.put(a.dest, c, time.Now())
	} else {
		_ = c.c.Close() // the response, or its error, is already in hand
	}
	return v, err
}
