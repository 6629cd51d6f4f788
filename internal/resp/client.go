package resp

import (
	"fmt"
	"net"
	"time"
)

// Client is a pipelined RESP client over one TCP connection.
//
// The pipelining contract mirrors the server's: Send queues commands into the
// write buffer, Flush puts the whole batch on the wire in one write, and
// Receive reads replies back in order. Do is the depth-1 convenience; a
// depth-N driver is a Send×N / Flush / Receive×N loop.
//
// Not safe for concurrent use; open one Client per goroutine (they are cheap:
// one connection, two buffers).
type Client struct {
	conn    net.Conn
	r       *Reader
	w       *Writer
	pending int
}

// Dial connects to a RESP server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (tests use net.Pipe-style pairs).
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: NewReader(conn), w: NewWriter(conn)}
}

// Conn exposes the underlying connection (for deadlines in tests).
func (c *Client) Conn() net.Conn { return c.conn }

// SetDeadline bounds all future reads and writes.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Pending returns the number of commands sent (or queued) whose replies have
// not been received yet.
func (c *Client) Pending() int { return c.pending }

// Send queues one command without writing to the wire.
func (c *Client) Send(args ...[]byte) {
	c.w.Command(args...)
	c.pending++
}

// SendStrings queues one command given as strings.
func (c *Client) SendStrings(args ...string) {
	c.w.CommandStrings(args...)
	c.pending++
}

// Flush writes all queued commands to the wire.
func (c *Client) Flush() error { return c.w.Flush() }

// Receive reads the next in-order reply. It flushes queued commands first so
// a Send/Receive sequence cannot deadlock on an unflushed batch.
func (c *Client) Receive() (Reply, error) {
	if c.w.Buffered() > 0 {
		if err := c.w.Flush(); err != nil {
			return Reply{}, err
		}
	}
	if c.pending == 0 {
		return Reply{}, fmt.Errorf("resp: Receive with no pending command")
	}
	rp, err := c.r.ReadReply()
	if err != nil {
		return Reply{}, err
	}
	c.pending--
	return rp, nil
}

// Do sends one command and waits for its reply (depth-1 pipelining). A RESP
// error reply is returned as the Reply with a nil error: callers that only
// care about failure use Reply.Err.
func (c *Client) Do(args ...[]byte) (Reply, error) {
	c.Send(args...)
	return c.Receive()
}

// DoStrings is Do with string arguments.
func (c *Client) DoStrings(args ...string) (Reply, error) {
	c.SendStrings(args...)
	return c.Receive()
}

// Ping round-trips a PING and fails on anything but +PONG.
func (c *Client) Ping() error {
	rp, err := c.DoStrings("PING")
	if err != nil {
		return err
	}
	if err := rp.Err(); err != nil {
		return err
	}
	if string(rp.Str) != "PONG" {
		return fmt.Errorf("resp: unexpected PING reply %q", rp.Text())
	}
	return nil
}

// Get fetches a key; ok reports whether it exists.
func (c *Client) Get(key []byte) (val []byte, ok bool, err error) {
	rp, err := c.Do([]byte("GET"), key)
	if err != nil {
		return nil, false, err
	}
	if err := rp.Err(); err != nil {
		return nil, false, err
	}
	if rp.Null {
		return nil, false, nil
	}
	return rp.Str, true, nil
}

// Set stores a key.
func (c *Client) Set(key, val []byte) error {
	rp, err := c.Do([]byte("SET"), key, val)
	if err != nil {
		return err
	}
	return rp.Err()
}

// Del removes keys and returns how many existed.
func (c *Client) Del(keys ...[]byte) (int64, error) {
	args := make([][]byte, 0, len(keys)+1)
	args = append(args, []byte("DEL"))
	args = append(args, keys...)
	rp, err := c.Do(args...)
	if err != nil {
		return 0, err
	}
	if err := rp.Err(); err != nil {
		return 0, err
	}
	return rp.Int, nil
}

// Info fetches the server's INFO text.
func (c *Client) Info() (string, error) {
	rp, err := c.DoStrings("INFO")
	if err != nil {
		return "", err
	}
	if err := rp.Err(); err != nil {
		return "", err
	}
	return string(rp.Str), nil
}
