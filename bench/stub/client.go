package stub

import (
	"errors"
	"net"
	"os"
	"time"
)

// Timeout is how long a stub client waits for a reply before the query
// counts as failed.
const Timeout = 2 * time.Second

// ErrTimeout reports a query that got no reply within Timeout.
var ErrTimeout = errors.New("stub: no reply within the timeout")

// Client is one closed-loop stub: a connected UDP socket with at most
// one query outstanding. It is not safe for concurrent use.
type Client struct {
	addr string
	conn *net.UDPConn
	id   uint16
	sent []byte
	recv []byte
}

// Dial connects a client to a server's host:port.
func Dial(addr string) (*Client, error) {
	c := &Client{addr: addr, recv: make([]byte, 4096)}
	return c, c.redial()
}

func (c *Client) redial() error {
	if c.conn != nil {
		c.conn.Close()
	}
	conn, err := net.Dial("udp", c.addr)
	if err != nil {
		return err
	}
	c.conn = conn.(*net.UDPConn)
	return nil
}

// Close releases the socket.
func (c *Client) Close() { c.conn.Close() }

// Exchange sends one query and waits for its validated reply, returning
// the send-to-validated-receive time. After a timeout the socket is
// replaced, so a late reply cannot be mistaken for the next query's.
func (c *Client) Exchange(it Item, scope uint8) (time.Duration, error) {
	c.id++
	c.sent = AppendQuery(c.sent[:0], c.id, it)
	start := Now()
	if err := c.conn.SetReadDeadline(start.Add(Timeout)); err != nil {
		return 0, err
	}
	if _, err := c.conn.Write(c.sent); err != nil {
		return 0, err
	}
	n, err := c.conn.Read(c.recv)
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			if rerr := c.redial(); rerr != nil {
				return 0, rerr
			}
			return 0, ErrTimeout
		}
		return 0, err
	}
	if err := Check(c.recv[:n], c.sent, scope); err != nil {
		return 0, err
	}
	return Now().Sub(start), nil
}
