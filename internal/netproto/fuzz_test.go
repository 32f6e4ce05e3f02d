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

// Fuzz targets for the decoders a device runs on bytes from the link:
// the frame header, UDP and TCP segments, and the DNS, SNTP and DHCP
// payloads. No input may panic, and whatever decodes re-encodes to the
// bytes it was decoded from.

func FuzzDecodeHeader(f *testing.F) {
	f.Add(EncodeHeader(Header{Dst: 1, Src: 2, Proto: ProtoUDP}, []byte("data")))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, ProtoICMP, 0, 0xff, 0xff}) // ping of death
	f.Fuzz(func(t *testing.T, frame []byte) {
		h, payload, err := DecodeHeader(frame)
		if err != nil {
			return
		}
		if got := EncodeHeader(h, payload); !bytes.Equal(got, frame[:len(got)]) {
			t.Fatalf("re-encoding the frame changed its bytes: %x vs %x", got, frame)
		}
	})
}

func FuzzDecodeUDP(f *testing.F) {
	f.Add(EncodeUDP(UDP{SrcPort: PortDNS, DstPort: 4000, Data: []byte("q")}))
	f.Add([]byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, p []byte) {
		if u, err := DecodeUDP(p); err == nil && !bytes.Equal(EncodeUDP(u), p) {
			t.Fatalf("re-encoding %+v changed its bytes", u)
		}
	})
}

func FuzzDecodeTCP(f *testing.F) {
	f.Add(EncodeTCP(TCP{SrcPort: PortMQTT, DstPort: 4000, Seq: 7, Flags: TCPSyn | TCPAck}))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, p []byte) {
		if s, err := DecodeTCP(p); err == nil && !bytes.Equal(EncodeTCP(s), p) {
			t.Fatalf("re-encoding %+v changed its bytes", s)
		}
	})
}

func FuzzDecodeDNSQuery(f *testing.F) {
	f.Add(EncodeDNSQuery(9, "broker.example"))
	f.Add([]byte{9, 0, 0xff, 'a'}) // name length past the end
	f.Fuzz(func(t *testing.T, p []byte) {
		id, name, err := DecodeDNSQuery(p)
		if err != nil {
			return
		}
		if got := EncodeDNSQuery(id, name); !bytes.Equal(got, p[:len(got)]) {
			t.Fatalf("re-encoding query %d %q changed its bytes", id, name)
		}
	})
}

func FuzzDecodeDNSReply(f *testing.F) {
	f.Add(EncodeDNSReply(9, IPv4(10, 0, 0, 53)))
	f.Add([]byte{9, 0, 1})
	f.Fuzz(func(t *testing.T, p []byte) {
		id, ip, err := DecodeDNSReply(p)
		if err == nil && !bytes.Equal(EncodeDNSReply(id, ip), p[:6]) {
			t.Fatalf("re-encoding reply %d %x changed its bytes", id, ip)
		}
	})
}

func FuzzDecodeNTPRequest(f *testing.F) {
	f.Add(EncodeNTPRequest(1 << 40))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		stamp, err := DecodeNTPRequest(p)
		if err == nil && !bytes.Equal(EncodeNTPRequest(stamp), p[:8]) {
			t.Fatalf("re-encoding request %d changed its bytes", stamp)
		}
	})
}

func FuzzDecodeNTPReply(f *testing.F) {
	f.Add(EncodeNTPReply(1<<40, 1_700_000_000_000))
	f.Add(make([]byte, 15))
	f.Fuzz(func(t *testing.T, p []byte) {
		stamp, millis, err := DecodeNTPReply(p)
		if err == nil && !bytes.Equal(EncodeNTPReply(stamp, millis), p[:16]) {
			t.Fatalf("re-encoding reply %d %d changed its bytes", stamp, millis)
		}
	})
}

func FuzzDecodeDHCP(f *testing.F) {
	f.Add(EncodeDHCP(DHCP{Op: DHCPOffer, XID: 77, YourIP: IPv4(10, 0, 0, 2), ServerIP: IPv4(10, 0, 0, 1)}))
	f.Add([]byte{DHCPDiscover, 1, 2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeDHCP(p)
		if err == nil && !bytes.Equal(EncodeDHCP(m), p[:13]) {
			t.Fatalf("re-encoding %+v changed its bytes", m)
		}
	})
}
