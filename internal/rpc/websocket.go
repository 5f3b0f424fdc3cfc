package rpc

// A minimal RFC 6455 WebSocket implementation over the standard library —
// the repository bakes in no third-party modules, and the subscription
// channel needs only text messages, ping/pong keepalive and close
// handshakes. The server side upgrades a hijacked HTTP connection; the
// client side (used by the tests and tools/loadgen) dials ws:// URLs.
// Fragmented messages are reassembled; extensions and subprotocols are
// deliberately not negotiated.

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
)

// wsGUID is the key-hashing constant of RFC 6455 §1.3.
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// wsMaxMessage bounds a reassembled message; larger payloads fail the read
// (a request or a progress snapshot is a few hundred bytes — a megabyte is
// already adversarial).
const wsMaxMessage = 1 << 20

// WebSocket opcodes (RFC 6455 §5.2).
const (
	opContinuation = 0x0
	opText         = 0x1
	opBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

// ErrWSClosed reports a read on a connection whose peer completed the
// close handshake.
var ErrWSClosed = errors.New("rpc: websocket closed")

// WSConn is one WebSocket connection. Reads must come from a single
// goroutine; writes are internally serialised so handler and stream
// goroutines can interleave messages safely.
type WSConn struct {
	conn   net.Conn
	br     *bufio.Reader
	client bool // client connections mask their frames

	// readTimeout, when > 0, bounds each inbound frame: the idle wait for
	// its first byte and the read of its payload share one deadline, so a
	// slow-loris peer drip-feeding bytes cannot hold the read loop past
	// it. writeTimeout, when > 0, bounds each outbound frame write, so a
	// stalled reader blocks a writer for at most that long. The server
	// sets both from its Config; client connections leave them zero.
	readTimeout  time.Duration
	writeTimeout time.Duration

	// fault, when non-nil, arms the WebSocket write fault (server side
	// only; the read-side faults live in the server's read loop).
	fault *fault.Injector

	wmu    sync.Mutex
	closed bool
}

// Upgrade performs the server side of the WebSocket handshake, hijacking
// the HTTP connection. On failure it writes the HTTP error itself and
// returns the reason.
func Upgrade(w http.ResponseWriter, r *http.Request) (*WSConn, error) {
	fail := func(status int, format string, args ...any) (*WSConn, error) {
		err := fmt.Errorf(format, args...)
		http.Error(w, err.Error(), status)
		return nil, err
	}
	if r.Method != http.MethodGet {
		return fail(http.StatusMethodNotAllowed, "websocket: method %s, want GET", r.Method)
	}
	if !headerContainsToken(r.Header, "Connection", "upgrade") || !headerContainsToken(r.Header, "Upgrade", "websocket") {
		return fail(http.StatusBadRequest, "websocket: not an upgrade request")
	}
	if v := r.Header.Get("Sec-WebSocket-Version"); v != "13" {
		return fail(http.StatusBadRequest, "websocket: unsupported version %q", v)
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		return fail(http.StatusBadRequest, "websocket: missing Sec-WebSocket-Key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		return fail(http.StatusInternalServerError, "websocket: response writer cannot hijack")
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("websocket: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n"
	if _, err := brw.WriteString(resp); err != nil {
		conn.Close()
		return nil, fmt.Errorf("websocket: handshake write: %w", err)
	}
	if err := brw.Flush(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("websocket: handshake flush: %w", err)
	}
	return &WSConn{conn: conn, br: brw.Reader}, nil
}

// DialWS opens a client WebSocket connection to a ws:// URL.
func DialWS(rawURL string, timeout time.Duration) (*WSConn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("websocket: %w", err)
	}
	if u.Scheme != "ws" {
		return nil, fmt.Errorf("websocket: unsupported scheme %q (only ws://)", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	conn, err := net.DialTimeout("tcp", host, timeout)
	if err != nil {
		return nil, fmt.Errorf("websocket: dial: %w", err)
	}
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
		defer conn.SetDeadline(time.Time{})
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		conn.Close()
		return nil, fmt.Errorf("websocket: nonce: %w", err)
	}
	key := base64.StdEncoding.EncodeToString(nonce)
	path := u.RequestURI()
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("websocket: handshake write: %w", err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet, URL: u})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("websocket: handshake read: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return nil, fmt.Errorf("websocket: handshake rejected: %s", resp.Status)
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != acceptKey(key) {
		conn.Close()
		return nil, fmt.Errorf("websocket: bad Sec-WebSocket-Accept %q", got)
	}
	return &WSConn{conn: conn, br: br, client: true}, nil
}

// acceptKey computes the RFC 6455 accept token for a handshake key.
func acceptKey(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// headerContainsToken reports whether a comma-separated header contains a
// token, case-insensitively ("Connection: keep-alive, Upgrade").
func headerContainsToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// ReadMessage returns the next text or binary message, reassembling
// fragments and transparently answering pings. It returns ErrWSClosed
// after the peer's close frame.
func (c *WSConn) ReadMessage() ([]byte, error) {
	var message []byte
	inFragment := false
	for {
		fin, opcode, payload, err := c.readFrame()
		if err != nil {
			return nil, err
		}
		switch opcode {
		case opPing:
			if err := c.writeFrame(opPong, payload); err != nil {
				return nil, err
			}
		case opPong:
			// Unsolicited pongs are legal keepalive; ignore.
		case opClose:
			// Echo the close handshake (ignoring errors: the peer may
			// already be gone) and surface the closure.
			c.writeFrame(opClose, payload)
			return nil, ErrWSClosed
		case opText, opBinary:
			if inFragment {
				return nil, errors.New("rpc: websocket: new data frame inside fragmented message")
			}
			message = append(message, payload...)
			if fin {
				return message, nil
			}
			inFragment = true
		case opContinuation:
			if !inFragment {
				return nil, errors.New("rpc: websocket: continuation without initial frame")
			}
			if len(message)+len(payload) > wsMaxMessage {
				return nil, errors.New("rpc: websocket: message too large")
			}
			message = append(message, payload...)
			if fin {
				return message, nil
			}
		default:
			return nil, fmt.Errorf("rpc: websocket: unsupported opcode %#x", opcode)
		}
	}
}

// WriteMessage sends one text message. It is safe for concurrent use.
func (c *WSConn) WriteMessage(payload []byte) error {
	return c.writeFrame(opText, payload)
}

// WriteJSON sends one JSON-encoded text message.
func (c *WSConn) WriteJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("rpc: websocket: encoding: %w", err)
	}
	return c.WriteMessage(data)
}

// WriteJSONAfter runs first under the connection's write lock and then
// sends v as one JSON text message, so no frame, v included, can reach
// the peer before first has returned. first runs even when the
// connection is closed; it must not write to the connection.
func (c *WSConn) WriteJSONAfter(v any, first func()) error {
	data, err := json.Marshal(v)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	first()
	if err != nil {
		return fmt.Errorf("rpc: websocket: encoding: %w", err)
	}
	if c.closed {
		return ErrWSClosed
	}
	return c.writeFrameLocked(opText, data)
}

// Close sends a close frame (best-effort) and closes the connection.
func (c *WSConn) Close() error {
	c.wmu.Lock()
	if !c.closed {
		c.closed = true
		c.conn.SetWriteDeadline(time.Now().Add(time.Second))
		c.writeFrameLocked(opClose, nil)
	}
	c.wmu.Unlock()
	return c.conn.Close()
}

// readFrame reads one frame, unmasking client frames server-side. With a
// read timeout set, the whole frame — idle gap, header and payload — must
// arrive within one deadline.
func (c *WSConn) readFrame() (fin bool, opcode byte, payload []byte, err error) {
	if c.readTimeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.readTimeout)); err != nil {
			return false, 0, nil, err
		}
	}
	var hdr [2]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return false, 0, nil, err
	}
	fin = hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return false, 0, nil, errors.New("rpc: websocket: reserved bits set (extensions not negotiated)")
	}
	opcode = hdr[0] & 0x0F
	masked := hdr[1]&0x80 != 0
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if length > wsMaxMessage {
		return false, 0, nil, fmt.Errorf("rpc: websocket: frame of %d bytes exceeds limit", length)
	}
	// RFC 6455 §5.1: client frames must be masked, server frames must not.
	if !c.client && !masked {
		return false, 0, nil, errors.New("rpc: websocket: unmasked client frame")
	}
	if c.client && masked {
		return false, 0, nil, errors.New("rpc: websocket: masked server frame")
	}
	var maskKey [4]byte
	if masked {
		if _, err := io.ReadFull(c.br, maskKey[:]); err != nil {
			return false, 0, nil, err
		}
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return false, 0, nil, err
	}
	if masked {
		for i := range payload {
			payload[i] ^= maskKey[i%4]
		}
	}
	return fin, opcode, payload, nil
}

// writeFrame serialises one unfragmented frame under the write lock.
func (c *WSConn) writeFrame(opcode byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return ErrWSClosed
	}
	return c.writeFrameLocked(opcode, payload)
}

func (c *WSConn) writeFrameLocked(opcode byte, payload []byte) error {
	if c.fault.Fire(fault.KeyWSWriteError) {
		return errors.New("rpc: websocket: injected fault: " + fault.KeyWSWriteError)
	}
	if c.writeTimeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return err
		}
	}
	header := make([]byte, 0, 14)
	header = append(header, 0x80|opcode)
	maskBit := byte(0)
	if c.client {
		maskBit = 0x80
	}
	switch {
	case len(payload) < 126:
		header = append(header, maskBit|byte(len(payload)))
	case len(payload) <= 0xFFFF:
		header = append(header, maskBit|126, byte(len(payload)>>8), byte(len(payload)))
	default:
		header = append(header, maskBit|127)
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], uint64(len(payload)))
		header = append(header, ext[:]...)
	}
	body := payload
	if c.client {
		var maskKey [4]byte
		if _, err := rand.Read(maskKey[:]); err != nil {
			return fmt.Errorf("rpc: websocket: mask: %w", err)
		}
		header = append(header, maskKey[:]...)
		body = make([]byte, len(payload))
		for i, b := range payload {
			body[i] = b ^ maskKey[i%4]
		}
	}
	if _, err := c.conn.Write(append(header, body...)); err != nil {
		return err
	}
	return nil
}
