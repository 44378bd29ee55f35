package netsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"testing/iotest"
	"time"
)

// goodFrame renders payload as a complete wire frame (header, body,
// checksum trailer).
func goodFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// frameCase is one hostile (or benign) byte stream presented to
// ReadFrame through both transports.
type frameCase struct {
	name string
	raw  func(t *testing.T) []byte

	// oneByte delivers the stream one byte per read (in-memory) or one
	// byte per write syscall (TCP), exercising reassembly across
	// arbitrary boundaries.
	oneByte bool

	want    []byte // expected payload when wantErr and anyErr are unset
	wantErr error  // errors.Is target
	anyErr  bool   // any error is acceptable (stream simply ends short)
}

func frameCases() []frameCase {
	payload := []byte("the quick brown frame jumps over the lazy socket")
	big := bytes.Repeat([]byte{0xAB}, 64<<10)
	return []frameCase{
		{
			name: "intact frame",
			raw:  func(t *testing.T) []byte { return goodFrame(t, payload) },
			want: payload,
		},
		{
			name: "intact empty frame",
			raw:  func(t *testing.T) []byte { return goodFrame(t, nil) },
			want: []byte{},
		},
		{
			name:    "intact frame, single-byte delivery",
			raw:     func(t *testing.T) []byte { return goodFrame(t, payload) },
			oneByte: true,
			want:    payload,
		},
		{
			name:    "intact large frame, single-byte header boundary",
			raw:     func(t *testing.T) []byte { return goodFrame(t, big) },
			oneByte: false,
			want:    big,
		},
		{
			name: "oversized length prefix",
			raw: func(t *testing.T) []byte {
				return []byte{0xFF, 0xFF, 0xFF, 0xFF}
			},
			wantErr: ErrFrameTooLarge,
		},
		{
			name: "garbage length prefix, stream ends short",
			raw: func(t *testing.T) []byte {
				// Claims an in-bounds but absurd body the peer never sends.
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], MaxFrameSize-1)
				return append(hdr[:], []byte("not nearly enough")...)
			},
			anyErr: true,
		},
		{
			name: "mid-body EOF",
			raw: func(t *testing.T) []byte {
				f := goodFrame(t, payload)
				return f[:4+len(payload)/2]
			},
			anyErr: true,
		},
		{
			name: "mid-header EOF",
			raw: func(t *testing.T) []byte {
				return goodFrame(t, payload)[:2]
			},
			anyErr: true,
		},
		{
			name: "missing checksum trailer",
			raw: func(t *testing.T) []byte {
				f := goodFrame(t, payload)
				return f[:len(f)-3]
			},
			anyErr: true,
		},
		{
			name: "bit flip in body",
			raw: func(t *testing.T) []byte {
				f := goodFrame(t, payload)
				f[4+len(payload)/2] ^= 0x10
				return f
			},
			wantErr: ErrCorruptFrame,
		},
		{
			name: "bit flip in checksum trailer",
			raw: func(t *testing.T) []byte {
				f := goodFrame(t, payload)
				f[len(f)-1] ^= 0x01
				return f
			},
			wantErr: ErrCorruptFrame,
		},
	}
}

// checkFrame asserts one case's outcome.
func checkFrame(t *testing.T, c frameCase, got []byte, err error) {
	t.Helper()
	switch {
	case c.wantErr != nil:
		if !errors.Is(err, c.wantErr) {
			t.Fatalf("err = %v, want %v", err, c.wantErr)
		}
	case c.anyErr:
		if err == nil {
			t.Fatalf("accepted hostile stream, payload %q", got)
		}
	default:
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("payload = %d bytes, want %d", len(got), len(c.want))
		}
	}
}

// TestFrameCodecRobustnessInMemory runs the hostile-stream table against
// a plain reader, with single-byte delivery simulating arbitrary read
// boundaries.
func TestFrameCodecRobustnessInMemory(t *testing.T) {
	for _, c := range frameCases() {
		t.Run(c.name, func(t *testing.T) {
			var r io.Reader = bytes.NewReader(c.raw(t))
			if c.oneByte {
				r = iotest.OneByteReader(r)
			}
			got, err := ReadFrame(r)
			checkFrame(t, c, got, err)
		})
	}
}

// TestFrameCodecRobustnessTCP runs the same table over a real loopback
// connection: the writer pushes the raw stream (byte-per-syscall when
// the case asks) and hangs up, and the reader must reassemble or reject
// exactly as it does in memory.
func TestFrameCodecRobustnessTCP(t *testing.T) {
	for _, c := range frameCases() {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			defer ln.Close()
			raw := c.raw(t)
			go func() {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					return
				}
				defer conn.Close()
				if c.oneByte {
					for i := range raw {
						if _, err := conn.Write(raw[i : i+1]); err != nil {
							return
						}
					}
					return
				}
				conn.Write(raw)
			}()
			conn, err := ln.Accept()
			if err != nil {
				t.Fatalf("accept: %v", err)
			}
			defer conn.Close()
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, err := ReadFrame(conn)
			checkFrame(t, c, got, err)
		})
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader every real
// connection runs: it must never panic, and an accepted frame must
// re-encode through WriteFrame to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	for _, payload := range [][]byte{nil, []byte("payload"), bytes.Repeat([]byte{0xA5}, 300)} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1])
		f.Add(append(buf.Bytes(), 0xde, 0xad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		payload, err := ReadFrame(r)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteFrame(&again, payload); err != nil {
			t.Fatalf("accepted %d-byte payload refused by WriteFrame: %v", len(payload), err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("accepted frame re-encodes to %x, consumed %x", again.Bytes(), consumed)
		}
	})
}
