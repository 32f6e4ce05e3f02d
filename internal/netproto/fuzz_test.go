package netproto

import (
	"bytes"
	"testing"
)

// Fuzz targets for the decoders a broker runs on bytes a device sent:
// the TLS ClientHello, TLS records, and MQTT control packets. No input
// may panic. Seed corpora live in testdata/fuzz; scripts/check.sh runs
// each target briefly with -fuzz.

// fuzzKey is a fixed session key, so records sealed by one twin session
// open on the other.
var fuzzKey = SessionKey([]byte("secret"), bytes.Repeat([]byte{1}, RandomBytes),
	bytes.Repeat([]byte{2}, RandomBytes))

func FuzzDecodeClientHello(f *testing.F) {
	f.Add(EncodeClientHello(bytes.Repeat([]byte{7}, RandomBytes)))
	f.Add([]byte{TLSClientHello})
	f.Fuzz(func(t *testing.T, p []byte) {
		random, err := DecodeClientHello(p)
		if err != nil {
			return
		}
		if len(random) != RandomBytes {
			t.Fatalf("client random is %d bytes, want %d", len(random), RandomBytes)
		}
		if !bytes.Equal(EncodeClientHello(random), p[:1+RandomBytes]) {
			t.Fatal("re-encoding the hello changed its bytes")
		}
	})
}

func FuzzSessionOpen(f *testing.F) {
	f.Add(NewSession(fuzzKey).Seal([]byte("hello")))
	f.Add([]byte{TLSRecord, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, record []byte) {
		// Arbitrary bytes as a record: an error or plaintext, never a
		// panic.
		_, _ = NewSession(fuzzKey).Open(record)
		// The same bytes as plaintext round-trip through a twin session.
		plain, err := NewSession(fuzzKey).Open(NewSession(fuzzKey).Seal(record))
		if err != nil || !bytes.Equal(plain, record) {
			t.Fatalf("Open(Seal(x)) = %x, %v; want x", plain, err)
		}
	})
}

func FuzzDecodeMQTT(f *testing.F) {
	f.Add(EncodeMQTT(MQTTPacket{Type: MQTTPublish, Topic: "fleet/1", Payload: []byte("x")}))
	f.Add(EncodeMQTT(MQTTPacket{Type: MQTTPublish, Topic: "t", TraceID: 1 << 60}))
	f.Add([]byte{MQTTSubscribe, 0xff, 0xff, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = DecodeMQTT(b)
	})
}

// FuzzMQTTRoundTrip: DecodeMQTT(EncodeMQTT(p)) returns p, trace trailer
// included, for topics and payloads under 64 KiB.
func FuzzMQTTRoundTrip(f *testing.F) {
	f.Add(byte(MQTTPublish), "fleet/1", []byte("reading"), uint64(0))
	f.Add(byte(MQTTConnect), "dev", []byte{}, uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, typ byte, topic string, payload []byte, trace uint64) {
		if len(topic) >= 1<<16 || len(payload) >= 1<<16 {
			return
		}
		p := MQTTPacket{Type: typ, Topic: topic, Payload: payload, TraceID: trace}
		got, err := DecodeMQTT(EncodeMQTT(p))
		if err != nil {
			t.Fatalf("decode of %+v: %v", p, err)
		}
		if got.Type != p.Type || got.Topic != p.Topic || !bytes.Equal(got.Payload, p.Payload) ||
			got.TraceID != p.TraceID {
			t.Fatalf("round trip: got %+v, want %+v", got, p)
		}
	})
}
