// Binary framing for the wire protocol (see docs/PROTOCOL.md).
//
// A connection opens with a 5-byte client hello — the 4-byte magic followed
// by the highest protocol version the client speaks — and a 1-byte server
// reply naming the accepted version. Everything after the handshake is
// frames:
//
//	offset  size  field
//	0       4     payload length, uint32 little-endian (0..MaxFrameSize)
//	4       1     op (request kind on the way in, opResult on the way out)
//	5       1     flags (reserved, must be 0)
//	6       4     request id, uint32 little-endian
//	10      n     payload (codec.go encoding of a request or Response)
//
// A peer that does not open with the magic is dropped unanswered.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// protoMagic opens every connection.
var protoMagic = [4]byte{0x80, 'R', 'P', 'L'}

// protoVersion1 is the current protocol version. Version 0 means "no
// common version" and never appears in a hello.
const protoVersion1 = 1

// frameHeaderLen is the fixed frame header size.
const frameHeaderLen = 10

// opResult is the op byte of every server→client frame; request frames use
// their request kind (reqAuth..reqCloseStmt) as the op byte.
const opResult = 0x40

// MaxFrameSize bounds one frame's payload, enforced on BOTH ends before any
// allocation: a corrupt or hostile length prefix surfaces as a typed
// ErrFrameTooLarge instead of a multi-gigabyte allocation. 8 MiB is far
// above any legitimate result batch this engine produces.
const MaxFrameSize = 8 << 20

// ErrFrameTooLarge reports a frame whose declared payload length exceeds
// MaxFrameSize. The connection is unusable afterwards (framing is lost).
var ErrFrameTooLarge = errors.New("wire: frame exceeds max frame size")

// ErrFrameCorrupt reports a frame payload that does not decode: truncated
// varints, string lengths overrunning the payload, unknown value kinds.
var ErrFrameCorrupt = errors.New("wire: corrupt frame")

// ErrProtocolDesync reports a response whose request id matches nothing in
// flight — the framing survived but the id stream did not. Soak tests
// assert this never happens.
var ErrProtocolDesync = errors.New("wire: protocol desync")

// errHandshakeRejected means the peer did not complete the hello: the
// server hung up on it or speaks no common version, or a client opened
// without the magic.
var errHandshakeRejected = errors.New("wire: binary handshake rejected")

// frameWriter assembles frames into a reused buffer and writes each through
// a buffered writer, so one frame is at most one syscall and pipelined
// bursts can share a single flush.
type frameWriter struct {
	bw  *bufio.Writer
	buf []byte
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{bw: bufio.NewWriter(w)}
}

// writeFrame encodes one frame: encode appends the payload after the
// reserved header bytes and returns the extended slice, so header, payload
// and buffered write share one allocation-free path.
func (fw *frameWriter) writeFrame(op, flags byte, id uint32, encode func([]byte) []byte) error {
	if cap(fw.buf) < frameHeaderLen {
		fw.buf = make([]byte, frameHeaderLen, 512)
	}
	b := encode(fw.buf[:frameHeaderLen])
	fw.buf = b
	payload := len(b) - frameHeaderLen
	if payload > MaxFrameSize {
		fw.buf = nil // don't pin an oversized buffer for the conn's lifetime
		return fmt.Errorf("%w: %d byte payload (max %d)", ErrFrameTooLarge, payload, MaxFrameSize)
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(payload))
	b[4] = op
	b[5] = flags
	binary.LittleEndian.PutUint32(b[6:10], id)
	_, err := fw.bw.Write(b)
	return err
}

func (fw *frameWriter) flush() error { return fw.bw.Flush() }

// frameReader reads frames, reusing one payload buffer across calls: the
// returned payload aliases that buffer and is valid only until the next
// readFrame — decoders copy what they keep (strings), so no payload bytes
// escape.
type frameReader struct {
	br  *bufio.Reader
	hdr [frameHeaderLen]byte
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &frameReader{br: br}
}

// readFrame reads one frame. The length prefix is validated against
// MaxFrameSize before the payload buffer is (re)sized, so a corrupt prefix
// cannot trigger a huge allocation.
func (fr *frameReader) readFrame() (op, flags byte, id uint32, payload []byte, err error) {
	if _, err = io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		return
	}
	n := binary.LittleEndian.Uint32(fr.hdr[0:4])
	if n > MaxFrameSize {
		err = fmt.Errorf("%w: %d byte payload (max %d)", ErrFrameTooLarge, n, MaxFrameSize)
		return
	}
	op = fr.hdr[4]
	flags = fr.hdr[5]
	id = binary.LittleEndian.Uint32(fr.hdr[6:10])
	if int(n) > cap(fr.buf) {
		fr.buf = make([]byte, n)
	}
	payload = fr.buf[:n]
	_, err = io.ReadFull(fr.br, payload)
	return
}

// acceptHello consumes the client hello from br and answers on conn with
// the accepted version. A peer that does not open with the magic gets no
// answer: the caller hangs up.
func acceptHello(br *bufio.Reader, conn net.Conn) error {
	var hello [len(protoMagic) + 1]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return err
	}
	if [4]byte(hello[:4]) != protoMagic {
		return fmt.Errorf("%w: no protocol magic", errHandshakeRejected)
	}
	if clientMax := hello[4]; clientMax < protoVersion1 {
		// No common version: say so with an explicit zero so the client
		// fails fast instead of timing out, then hang up.
		_, _ = conn.Write([]byte{0})
		return fmt.Errorf("%w: client speaks only version %d", errHandshakeRejected, clientMax)
	}
	_, err := conn.Write([]byte{protoVersion1})
	return err
}

// clientHello performs the client half of the handshake within deadline:
// write magic+version, read the server's accepted version. Any failure,
// including a server that hangs up on the hello, comes back wrapping
// errHandshakeRejected.
func clientHello(conn net.Conn, deadline time.Time) error {
	if err := conn.SetDeadline(deadline); err != nil {
		return err
	}
	hello := append(append([]byte{}, protoMagic[:]...), protoVersion1)
	if _, err := conn.Write(hello); err != nil {
		return fmt.Errorf("%w: %v", errHandshakeRejected, err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return fmt.Errorf("%w: %v", errHandshakeRejected, err)
	}
	if ack[0] != protoVersion1 {
		return fmt.Errorf("%w: server accepted version %d", errHandshakeRejected, ack[0])
	}
	return conn.SetDeadline(time.Time{})
}
