package main

import (
	"encoding/binary"
	"io"
	"net"
	"time"
)

// The box is a few cores of a shared host, and how fast it runs depends on
// what the neighbours do: the same commit read 1.7, 2.0, 2.45 and 2.7 M
// updates/s on post_small within one evening, each level holding for minutes
// and every latency moving with it, so that ten runs of one commit spread by
// a third. A level outlasts a run, so no estimator over a run's own samples
// can see it. What does see it is a fixed piece of work of the same kind,
// timed on the same box at the same moments.
//
// The yardstick is that work: a miniature of the system under test made only
// of parts that are never optimised. A goroutine serves length-prefixed frames
// of keys over a loopback TCP connection, adds each frame's keys to the
// SNIPPETS.md baseline Count-Min (baseline.go) and acks; a reading sends it
// rounds of one 4096-key frame and sixteen 256-key frames, closed loop, for
// yardstickDur and returns the ns a key took. Sockets, wake-ups, copies and
// hashing are in it in about the proportion the workloads have them, so
// whatever slows the daemons slows it alike: a busy sibling thread, a colder
// cache, a slower clock, a neighbour taking time slices.
//
// The clients pause between the sub-windows of a phase and the yardstick is
// read there; a phase's timings are multiplied by nominal/(mean reading), so
// an end-to-end time is in milliseconds of the box running the yardstick at
// its nominal pace, and a rate in units per such second.
const (
	yardstickBulk        = 4096 // keys in the round's large frame
	yardstickSmall       = 256  // keys in each of its small frames
	yardstickSmallFrames = 16
	yardstickDur         = 25 * time.Millisecond
	// yardstickNominalNs is what a key took on this box on a quiet evening.
	yardstickNominalNs = 40.0
)

type yardstick struct {
	ln       net.Listener
	conn     net.Conn
	frame    []byte // 4-byte length, then yardstickBulk little-endian keys
	served   chan struct{}
	readings []float64 // every reading taken, ns per key
	err      error     // the first failure of the loopback connection
}

func newYardstick() (*yardstick, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	y := &yardstick{ln: ln, frame: make([]byte, 4+8*yardstickBulk), served: make(chan struct{})}
	rng := splitmix64(0x5eed)
	for i := 0; i < yardstickBulk; i++ {
		binary.LittleEndian.PutUint64(y.frame[4+8*i:], rng.next())
	}
	go y.serve()
	if y.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-y.served
		return nil, err
	}
	return y, nil
}

// serve is the reference daemon: one connection, each frame's keys added to a
// baseline Count-Min of the daemons' default shape, four bytes of ack.
func (y *yardstick) serve() {
	defer close(y.served)
	c, err := y.ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	cm := newBaselineCM(defaultWidth, sketchDepth, sketchSeed)
	buf := make([]byte, 8*yardstickBulk)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		body := buf[:binary.LittleEndian.Uint32(hdr[:])]
		if _, err := io.ReadFull(c, body); err != nil {
			return
		}
		for i := 0; i+8 <= len(body); i += 8 {
			cm.add(binary.LittleEndian.Uint64(body[i:]), 1)
		}
		if _, err := c.Write(hdr[:]); err != nil {
			return
		}
	}
}

// send ships the first n keys as one frame and waits for the ack.
func (y *yardstick) send(n int) {
	if y.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(y.frame, uint32(8*n))
	if _, y.err = y.conn.Write(y.frame[:4+8*n]); y.err == nil {
		_, y.err = io.ReadFull(y.conn, y.frame[:4])
	}
}

// measure takes one reading: the ns a key takes through the reference daemon
// right now. A nil yardstick reads nominal, which leaves timings as the clock
// read them. A broken connection is kept in y.err for the run to fail on.
func (y *yardstick) measure() float64 {
	if y == nil {
		return yardstickNominalNs
	}
	start, keys := time.Now(), 0
	for time.Since(start) < yardstickDur && y.err == nil {
		y.send(yardstickBulk)
		for i := 0; i < yardstickSmallFrames; i++ {
			y.send(yardstickSmall)
		}
		keys += yardstickBulk + yardstickSmallFrames*yardstickSmall
	}
	r := float64(time.Since(start)) / float64(keys)
	y.readings = append(y.readings, r)
	return r
}

func (y *yardstick) close() {
	y.conn.Close()
	y.ln.Close()
	<-y.served
}

// toNominal is what a duration measured around the given yardstick readings
// is multiplied by (and a rate divided by) to read as on the nominal box.
func toNominal(readings []float64) float64 {
	sum := 0.0
	for _, r := range readings {
		sum += r
	}
	return yardstickNominalNs / (sum / float64(len(readings)))
}
