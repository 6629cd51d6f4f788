package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"
)

// client is the benchmark's own pipelining RESP client (a private copy, not
// resp.Client, so a change to that package cannot move the instrument). It
// speaks exactly the two commands the workloads use, renders keys and values
// into one reused buffer, and allocates nothing per command.
type client struct {
	nc  net.Conn
	br  *bufio.Reader
	out []byte
}

func dial(addr string) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &client{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), out: make([]byte, 0, 4<<10)}
	// One round trip before returning: the server has accepted the
	// connection and created its session by the time the reply arrives, which
	// the tracer's connection-to-session pairing relies on.
	c.out = append(c.out, "*1\r\n$4\r\nPING\r\n"...)
	if err := c.flush(); err != nil {
		nc.Close()
		return nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil || string(line) != "+PONG\r\n" {
		nc.Close()
		return nil, fmt.Errorf("ping: reply %q, err %v", line, err)
	}
	return c, nil
}

func (c *client) close() { c.nc.Close() }

// queueGet appends a GET for key index i to the send buffer.
func (c *client) queueGet(i uint32) {
	c.out = append(c.out, "*2\r\n$3\r\nGET\r\n$8\r\n00000000\r\n"...)
	putKey(c.out[len(c.out)-keyLen-2:], i)
}

// queueSet appends a SET of key index i at the given version.
func (c *client) queueSet(i, version uint32) {
	c.out = append(c.out, "*3\r\n$3\r\nSET\r\n$8\r\n00000000\r\n$8\r\n00000000\r\n"...)
	n := len(c.out)
	putKey(c.out[n-2*(keyLen+2)-4:], i)
	putValue(c.out[n-valLen-2:], i, version)
}

// flush puts every queued command on the wire in one write.
func (c *client) flush() error {
	_, err := c.nc.Write(c.out)
	c.out = c.out[:0]
	return err
}

var (
	errNull  = errors.New("null reply")
	errReply = errors.New("error reply")
)

// replyError turns a "-ERR ..." line into an error; nil for any other line.
func replyError(line []byte) error {
	if len(line) >= 3 && line[0] == '-' {
		return fmt.Errorf("%w: %s", errReply, line[1:len(line)-2])
	}
	return nil
}

// readBulk reads a bulk-string reply. The slice aliases the read buffer and
// is valid until the next read. A null bulk returns errNull; a RESP error
// reply returns its text as the error.
func (c *client) readBulk() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if err := replyError(line); err != nil {
		return nil, err
	}
	if len(line) < 4 || line[0] != '$' {
		return nil, fmt.Errorf("want bulk reply, got %q", line)
	}
	if line[1] == '-' {
		return nil, errNull
	}
	n := 0
	for _, d := range line[1 : len(line)-2] {
		if d < '0' || d > '9' {
			return nil, fmt.Errorf("bad bulk length %q", line)
		}
		n = n*10 + int(d-'0')
	}
	body, err := c.br.Peek(n + 2)
	if err != nil {
		return nil, err
	}
	if _, err := c.br.Discard(n + 2); err != nil {
		return nil, err
	}
	return body[:n], nil
}

// readOK reads a +OK reply.
func (c *client) readOK() error {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if err := replyError(line); err != nil {
		return err
	}
	if string(line) != "+OK\r\n" {
		return fmt.Errorf("want +OK, got %q", line)
	}
	return nil
}
