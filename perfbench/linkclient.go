package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"fpdyn/internal/collector"
	"fpdyn/internal/linkd"
	"fpdyn/internal/storage"
)

// linkConn is a pipelining linkd client: a sender writes pre-encoded
// binary frames on schedule while a reader matches replies to requests
// in order (the server answers one connection's requests in order).
type linkConn struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialLinkd(addr string) (*linkConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &linkConn{conn: conn, br: bufio.NewReaderSize(conn, 1<<16)}
	hello, _ := json.Marshal(linkd.Request{Type: linkd.TypeHello, Framing: collector.FramingBinary})
	if _, err := conn.Write(append(hello, '\n')); err != nil {
		conn.Close()
		return nil, err
	}
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("linkd hello: %w", err)
	}
	var resp linkd.Response
	if err := json.Unmarshal(line, &resp); err != nil || resp.Framing != collector.FramingBinary {
		conn.Close()
		return nil, fmt.Errorf("linkd hello: binary framing refused: %s", line)
	}
	return c, nil
}

func (c *linkConn) Close() error { return c.conn.Close() }

// encodeFrame renders one request as a binary frame.
func encodeFrame(req *linkd.Request) []byte {
	payload, err := json.Marshal(req)
	if err != nil {
		panic(err) // requests are built from simulated records, which always encode
	}
	return storage.AppendFrame(nil, payload)
}

// linkOp is one scheduled request.
type linkOp struct {
	due   time.Duration // offset from the start of the schedule
	frame []byte
	// before, when set, runs after every earlier request on the
	// connection has been answered and before this one is sent.
	before func()
}

// linkReply is the outcome of one linkOp.
type linkReply struct {
	done time.Duration // when the reply arrived, from the schedule start
	resp *linkd.Response
	err  error
}

// runLinkSchedule sends ops on conn in order, each at its due time
// (late if the connection is blocked), and returns every reply plus the
// generator's own lateness: how far past due it woke when it had been
// waiting for a due time.
func runLinkSchedule(c *linkConn, start time.Time, ops []linkOp) ([]linkReply, []float64) {
	replies := make([]linkReply, len(ops))
	var late []float64
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	answered := 0
	readerDone := make(chan struct{})
	sent := make(chan int, len(ops)) // one slot per op: the sender never blocks on it

	go func() {
		defer close(readerDone)
		for i := range sent {
			payload, err := storage.ReadFrame(c.br, 0)
			var resp linkd.Response
			if err == nil {
				err = json.Unmarshal(payload, &resp)
			}
			replies[i] = linkReply{done: time.Since(start), resp: &resp, err: err}
			mu.Lock()
			answered++
			cond.Broadcast()
			mu.Unlock()
			if err != nil {
				for j := range sent { // the connection is unusable: fail the rest
					replies[j] = linkReply{done: time.Since(start), err: err}
				}
				mu.Lock()
				answered = len(ops)
				cond.Broadcast()
				mu.Unlock()
				return
			}
		}
	}()

	for i, op := range ops {
		if op.before != nil {
			mu.Lock()
			for answered < i {
				cond.Wait()
			}
			mu.Unlock()
			op.before()
		}
		if waitUntil(start.Add(op.due)) {
			late = append(late, float64(time.Since(start)-op.due)/1e6)
		}
		if _, err := c.conn.Write(op.frame); err != nil {
			for j := i; j < len(ops); j++ {
				replies[j] = linkReply{done: time.Since(start), err: err}
			}
			break
		}
		sent <- i
	}
	close(sent)
	<-readerDone
	return replies, late
}

// replyOK reports whether a query or add reply succeeded.
func replyOK(r linkReply, want string) bool {
	return r.err == nil && r.resp != nil && r.resp.Type == want
}

// waitUntil returns once t has passed, reporting whether it had to
// wait at all. It sleeps in nanosleep(2) rather than on a Go timer: an
// idle Go timer wakes up to a millisecond late, and that lateness
// would count as latency of every request sent after it.
func waitUntil(t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return false
	}
	for d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the loop resumes it
		d = time.Until(t)
	}
	return true
}
