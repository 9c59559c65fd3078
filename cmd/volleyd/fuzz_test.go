package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseNumber ensures arbitrary source output never panics the parser,
// and that the parser, which works on the bytes in place, reads what
// strings.Fields and strconv.ParseFloat read from the same output.
func FuzzParseNumber(f *testing.F) {
	f.Add("42")
	f.Add("")
	f.Add("  3.5 trailing")
	f.Add("NaN")
	f.Add("1e999")
	f.Add("\u00a07\u2003x")
	f.Add("\xff 1")
	f.Fuzz(func(t *testing.T, s string) {
		v, err := parseNumber([]byte(s))
		if err == nil && v != v && s == "" {
			t.Fatalf("empty input produced value %v without error", v)
		}
		fields := strings.Fields(s)
		if len(fields) == 0 {
			if err == nil {
				t.Fatalf("parseNumber(%q) = %v, want an error: there is no field", s, v)
			}
			return
		}
		want, wantErr := strconv.ParseFloat(fields[0], 64)
		if (err != nil) != (wantErr != nil) || (err == nil && v != want && (v == v || want == want)) {
			t.Fatalf("parseNumber(%q) = %v, %v; the first field %q parses as %v, %v", s, v, err, fields[0], want, wantErr)
		}
	})
}

// FuzzHTTPAgentResponse holds the agent's response reader against
// http.ReadResponse, read the way http.Transport reads (1xx responses
// skipped, five at most): whatever bytes arrive, the reader does not panic,
// keeps no more than the body limit and no more than twice the input, and
// wherever both accept the bytes they find the same status and, for a 200 —
// the only body the agent looks at — the same first 64 KiB of body. Either
// may refuse what the other takes; the reader refuses more.
func FuzzHTTPAgentResponse(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n12.5",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1;x=y\r\n1\r\n3\r\n2.5\r\n0\r\nX-T: 1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n31\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\n8.25\n",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 1\r\n\r\n6",
		"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\n6\r\n0\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n4",
		"HTTP/1.1 101 Switching Protocols\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n4",
		"HTTP/1.1 302 Found\r\nLocation: /x\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\nContent-Length: 3\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n12",
		"HTTP/1.1 200 OK\r\nContent-Length: 1\r\ncontent-length: 1 \r\n\r\n12",
		"HTTP/1.1 200 OK\nContent-Length: 1\n\n5",
		"HTTP/1.1 200 OK\r\nX-A: b\r\n c\r\nContent-Length: 1\r\n\r\n1",
		"HTTP/1.1 200 OK\r\nContent-Length : 1\r\n\r\n1",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunKed\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5 \r\nhello\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\n1\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\n1\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n00000000001\r\n1\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n1",
		"HTTP/1.1  200 OK\r\n\r\n",
		"HTTP/1.1 +20 OK\r\n\r\n",
		"HTTP/2.0 200 OK\r\nContent-Length: 1\r\n\r\n1",
		"\r\nHTTP/1.1 200 OK\r\n\r\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Add([]byte("HTTP/1.1 200 OK\r\n\r\n" + strings.Repeat("7", agentBodyLimit+100)))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + strings.Repeat("8000\r\n"+strings.Repeat("7", 0x8000)+"\r\n", 3) + "0\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &agentConn{br: bufio.NewReader(bytes.NewReader(data))}
		h, _, err := c.readResponse()
		if len(c.body) > agentBodyLimit || cap(c.body) > 2*len(data)+64 {
			t.Fatalf("%d bytes of input left a body buffer of %d bytes holding %d", len(data), cap(c.body), len(c.body))
		}

		br := bufio.NewReader(bytes.NewReader(data))
		var resp *http.Response
		for interim := 0; ; interim++ {
			var refErr error
			if resp, refErr = http.ReadResponse(br, nil); refErr != nil || interim > agentMaxInterim {
				return
			}
			if resp.StatusCode/100 != 1 || resp.StatusCode == http.StatusSwitchingProtocols {
				break
			}
		}
		if err != nil {
			return
		}
		if h.status != resp.StatusCode {
			t.Fatalf("status %d, net/http reads %d", h.status, resp.StatusCode)
		}
		if h.status != http.StatusOK {
			return
		}
		want, refErr := io.ReadAll(resp.Body)
		if refErr != nil {
			return
		}
		if want = want[:min(len(want), agentBodyLimit)]; !bytes.Equal(c.body, want) {
			t.Fatalf("body %q, net/http reads %q", c.body, want)
		}
	})
}
