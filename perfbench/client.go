package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
)

// rawConn is one keep-alive HTTP/1.1 connection that writes pre-encoded
// requests and reads answers framed by Content-Length. It is a thin load
// client: unlike net/http's client it starts no goroutines and allocates
// almost nothing per request, so it leaves the server most of the CPU the
// two share on a small box.
type rawConn struct {
	c    net.Conn
	r    *bufio.Reader
	body []byte
}

func dial(addr string) (*rawConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{c: c, r: bufio.NewReader(c)}, nil
}

// encodeRequest renders an HTTP/1.1 request with an optional JSON body.
func encodeRequest(method, path string, body []byte) []byte {
	head := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: oracle\r\n", method, path)
	if body != nil {
		head += fmt.Sprintf("Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	return append([]byte(head+"\r\n"), body...)
}

// roundTrip writes req and returns the answer's status code and body. The
// body is only valid until the next call.
func (rc *rawConn) roundTrip(req []byte) (int, []byte, error) {
	if _, err := rc.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := rc.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	f := bytes.Fields(line) // HTTP/1.1 200 OK
	if len(f) < 2 {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	code, err := strconv.Atoi(string(f[1]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	n := -1
	for {
		line, err := rc.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && bytes.EqualFold(bytes.TrimSpace(k), []byte("Content-Length")) {
			if n, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, fmt.Errorf("malformed header %q", line)
			}
		}
	}
	if n < 0 {
		return 0, nil, errors.New("answer without Content-Length")
	}
	rc.body = slices.Grow(rc.body[:0], n)[:n]
	if _, err := io.ReadFull(rc.r, rc.body); err != nil {
		return 0, nil, err
	}
	return code, rc.body, nil
}

func (rc *rawConn) close() { rc.c.Close() }
