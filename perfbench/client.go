package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"time"

	"hyperq/internal/wire"
	"hyperq/internal/wire/tdp"
)

// hashSeed keys every response hash of one process. The reference and the
// timed responses are hashed in the same process, so a per-process seed is
// all the comparison needs.
var hashSeed = maphash.MakeSeed()

// response is what the checker keeps of one request: never the decoded
// rows, only counts and hashes of the raw parcels.
type response struct {
	failed   bool
	code     uint32
	msg      string
	records  int
	parcels  int
	bytes    int64
	hash     uint64 // every parcel kind and payload
	shape    uint64 // parcel kinds and column metadata, not record payloads
	firstRow time.Duration
	elapsed  time.Duration
}

// client is a lean TDP client: it reads parcels into one reused buffer and
// never decodes rows, so the load generator adds little allocation or CPU
// next to the gateway it measures.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	out  []byte
	buf  []byte
	h    maphash.Hash
	hs   maphash.Hash
}

func dialClient(addr, user string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := newClient(conn)
	var b wire.Buffer
	b.PutString(user)
	b.PutString("secret")
	if err := wire.WriteMessage(conn, tdp.MsgLogon, b.Bytes()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("logon %s: %w", user, err)
	}
	kind, err := c.next()
	if err != nil || kind != tdp.MsgLogonOK {
		conn.Close()
		return nil, fmt.Errorf("logon %s refused (parcel 0x%02x, %v)", user, kind, err)
	}
	return c, nil
}

func newClient(conn net.Conn) *client {
	c := &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}
	c.h.SetSeed(hashSeed)
	c.hs.SetSeed(hashSeed)
	return c
}

// next reads one parcel into c.buf and returns its kind.
func (c *client) next() (byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > wire.MaxMessageSize {
		return 0, fmt.Errorf("parcel of %d bytes exceeds limit", n)
	}
	if cap(c.buf) < int(n) {
		c.buf = make([]byte, n)
	}
	c.buf = c.buf[:n]
	if _, err := io.ReadFull(c.r, c.buf); err != nil {
		return 0, err
	}
	return hdr[0], nil
}

// do sends one request and reads its response up to EndRequest.
func (c *client) do(sql string) (response, error) {
	c.out = append(c.out[:0], tdp.MsgRunRequest, 0, 0, 0, 0)
	c.out = binary.BigEndian.AppendUint32(c.out, uint32(len(sql)))
	c.out = append(c.out, sql...)
	binary.BigEndian.PutUint32(c.out[1:5], uint32(len(c.out)-5))
	c.h.Reset()
	c.hs.Reset()
	var resp response
	start := time.Now()
	if _, err := c.conn.Write(c.out); err != nil {
		return resp, err
	}
	for {
		kind, err := c.next()
		if err != nil {
			return resp, err
		}
		resp.parcels++
		resp.bytes += int64(len(c.buf)) + 5
		c.h.WriteByte(kind)
		c.h.Write(c.buf)
		switch kind {
		case tdp.MsgRecord:
			if resp.records == 0 {
				resp.firstRow = time.Since(start)
			}
			resp.records++
			continue
		case tdp.MsgStmtInfo:
			c.hs.Write(c.buf)
		case tdp.MsgFailure:
			r := wire.NewReader(c.buf)
			resp.failed = true
			resp.code = r.U32()
			resp.msg = r.String()
		case tdp.MsgEndRequest:
			resp.elapsed = time.Since(start)
			resp.hash = c.h.Sum64()
			c.hs.WriteByte(kind)
			resp.shape = c.hs.Sum64()
			return resp, nil
		}
		c.hs.WriteByte(kind)
	}
}

func (c *client) close() {
	_ = wire.WriteMessage(c.conn, tdp.MsgLogoff, nil)
	c.conn.Close()
}
