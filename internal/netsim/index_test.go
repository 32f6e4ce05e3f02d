package netsim

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/netproto"
)

// These in-package tests look inside the topic index. Their device side
// is a bare World in concurrent mode: segments go straight into a broker
// host's Receive and replies are read off the World's inbox, so no
// device core or netstack is in the loop and a client is safe to drive
// from its own goroutine.

var indexRoot = []byte("secret")

type indexClient struct {
	w    *World
	core *hw.Core
	host *ServerHost
	port uint16
	tls  *netproto.Session
}

func newIndexClient(ip uint32, host *ServerHost, port uint16) *indexClient {
	core := hw.NewCore(0x4000, 0)
	w := NewWorld(core, hw.NewNetAdaptor(core), ip)
	w.SetConcurrent(true)
	return &indexClient{w: w, core: core, host: host, port: port}
}

func (c *indexClient) send(flags uint8, data []byte) {
	c.host.Receive(c.w, netproto.Header{Src: c.w.DeviceIP, Dst: c.host.IP, Proto: netproto.ProtoTCP},
		netproto.EncodeTCP(netproto.TCP{SrcPort: c.port, DstPort: netproto.PortMQTT, Seq: 1,
			Flags: flags, Data: data}))
}

// segments takes every TCP segment queued for the device.
func (c *indexClient) segments() []netproto.TCP {
	c.w.inboxMu.Lock()
	frames := c.w.inbox
	c.w.inbox = nil
	c.w.inboxMu.Unlock()
	var out []netproto.TCP
	for _, f := range frames {
		_, payload, err := netproto.DecodeHeader(f)
		if err != nil {
			continue
		}
		if seg, err := netproto.DecodeTCP(payload); err == nil {
			out = append(out, seg)
		}
	}
	return out
}

// packets opens every queued record as an MQTT packet, in arrival order.
func (c *indexClient) packets() ([]netproto.MQTTPacket, error) {
	var out []netproto.MQTTPacket
	for _, seg := range c.segments() {
		if len(seg.Data) == 0 {
			continue
		}
		plain, err := c.tls.Open(seg.Data)
		if err != nil {
			return nil, err
		}
		pkt, err := netproto.DecodeMQTT(plain)
		if err != nil {
			return nil, err
		}
		out = append(out, pkt)
	}
	return out, nil
}

// mqtt sends one sealed packet; responses stay queued.
func (c *indexClient) mqtt(pkt netproto.MQTTPacket) {
	c.send(netproto.TCPPsh|netproto.TCPAck, c.tls.Seal(netproto.EncodeMQTT(pkt)))
}

// exch sends one packet and expects exactly one response of type want.
func (c *indexClient) exch(pkt netproto.MQTTPacket, want uint8) error {
	c.mqtt(pkt)
	got, err := c.packets()
	if err != nil {
		return err
	}
	if len(got) != 1 || got[0].Type != want {
		return fmt.Errorf("%v: got %+v, want one packet of type %d", pkt.Type, got, want)
	}
	return nil
}

// connect runs SYN, the TLS handshake, and MQTT CONNECT.
func (c *indexClient) connect() error {
	c.send(netproto.TCPSyn, nil)
	if segs := c.segments(); len(segs) != 1 || segs[0].Flags != netproto.TCPSyn|netproto.TCPAck {
		return fmt.Errorf("SYN answered with %+v", segs)
	}
	clientRandom := bytes.Repeat([]byte{byte(c.w.DeviceIP)}, netproto.RandomBytes)
	c.send(netproto.TCPPsh|netproto.TCPAck, netproto.EncodeClientHello(clientRandom))
	segs := c.segments()
	if len(segs) != 1 {
		return fmt.Errorf("ClientHello answered with %d segments", len(segs))
	}
	serverRandom, _, err := netproto.DecodeServerHello(indexRoot, segs[0].Data)
	if err != nil {
		return err
	}
	c.tls = netproto.NewSession(netproto.SessionKey(indexRoot, clientRandom, serverRandom))
	return c.exch(netproto.MQTTPacket{Type: netproto.MQTTConnect, Topic: "dev"}, netproto.MQTTConnAck)
}

func (c *indexClient) subscribe(topic string) error {
	return c.exch(netproto.MQTTPacket{Type: netproto.MQTTSubscribe, Topic: topic}, netproto.MQTTSubAck)
}

// indexed copies the broker's index: topic → subscribed sessions.
func (b *Broker) indexed() map[string][]*BrokerSession {
	b.index.mu.Lock()
	defer b.index.mu.Unlock()
	out := make(map[string][]*BrokerSession, len(b.index.subs))
	for topic, l := range b.index.subs {
		out[topic] = append([]*BrokerSession(nil), l...)
	}
	return out
}

func probes(b *Broker) int {
	_, n := b.IndexStats()
	return n
}

func deviceAddr(i int) uint32 { return netproto.IPv4(10, 4, byte(i>>8), byte(i)) }

// TestBrokerSynTakeover: a device that reboots and reuses its ephemeral
// port sends a SYN on a 4-tuple the broker still holds. The broker drops
// the stale connection silently — its session leaves the index — and
// accepts the new one.
func TestBrokerSynTakeover(t *testing.T) {
	host, broker := NewBroker(netproto.IPv4(10, 0, 8, 1), indexRoot, []byte("cert"))
	c := newIndexClient(deviceAddr(2), host, 40000)
	if err := c.connect(); err != nil {
		t.Fatal(err)
	}
	if err := c.subscribe("t"); err != nil {
		t.Fatal(err)
	}
	stale := broker.indexed()["t"]
	if len(stale) != 1 {
		t.Fatalf("index holds %d subscribers of t, want 1", len(stale))
	}

	c.send(netproto.TCPSyn, nil)
	if segs := c.segments(); len(segs) != 1 || segs[0].Flags != netproto.TCPSyn|netproto.TCPAck {
		t.Fatalf("rebooted device's SYN answered with %+v, want one SYN|ACK", segs)
	}
	if n := broker.SessionCount(); n != 1 {
		t.Errorf("session count = %d after the takeover, want 1", n)
	}
	if l := broker.indexed()["t"]; len(l) != 0 {
		t.Errorf("stale session still indexed under t: %d entries", len(l))
	}
	if !stale[0].peer.closed {
		t.Error("stale connection left open")
	}
	if n := broker.Publish("t", []byte("x")); n != 0 {
		t.Errorf("publish reached %d sessions, want 0", n)
	}
	if superseded, reaped := broker.ReapStats(); superseded != 0 || reaped != 0 {
		t.Errorf("reap stats %d/%d: a takeover is a close, not a supersession or reap", superseded, reaped)
	}
	if err := c.connect(); err != nil {
		t.Fatalf("reconnect on the reused port: %v", err)
	}
}

// TestBrokerPublishVisitsOnlySubscribers: a publish visits its topic's
// index entries and nothing else, however many sessions the broker holds.
func TestBrokerPublishVisitsOnlySubscribers(t *testing.T) {
	for _, others := range []int{1, 64, 512} {
		t.Run(fmt.Sprintf("3+%dsessions", others), func(t *testing.T) {
			host, broker := NewBroker(netproto.IPv4(10, 0, 8, 1), indexRoot, []byte("cert"))
			clients := make([]*indexClient, 3+others)
			for i := range clients {
				clients[i] = newIndexClient(deviceAddr(i+2), host, 40000)
				if err := clients[i].connect(); err != nil {
					t.Fatal(err)
				}
			}
			subs, idle := clients[:3], clients[3:]
			for _, c := range subs {
				if err := c.subscribe("hot"); err != nil {
					t.Fatal(err)
				}
			}
			// The idle sessions stand in for the rest of the fleet: one
			// publishes (to a topic nobody holds), one to the hot topic.
			idle[0].mqtt(netproto.MQTTPacket{Type: netproto.MQTTPublish, Topic: "cold", Payload: []byte("c")})
			if n := probes(broker); n != 0 {
				t.Errorf("publish to an unsubscribed topic visited %d entries, want 0", n)
			}
			idle[0].mqtt(netproto.MQTTPacket{Type: netproto.MQTTPublish, Topic: "hot", Payload: []byte("d")})
			if n := probes(broker); n != 3 {
				t.Errorf("device publish visited %d entries, want 3", n)
			}
			if n := broker.Publish("hot", []byte("e")); n != 3 {
				t.Errorf("Publish reached %d subscribers, want 3", n)
			}
			if n := probes(broker); n != 6 {
				t.Errorf("cloud publish visited %d entries, want 3", n-3)
			}
			// A subscriber's own publish visits all three and skips itself.
			subs[0].mqtt(netproto.MQTTPacket{Type: netproto.MQTTPublish, Topic: "hot", Payload: []byte("f")})
			if n := probes(broker); n != 9 {
				t.Errorf("subscriber publish visited %d entries, want 3", n-6)
			}
			for i, c := range subs {
				got, err := c.packets()
				if err != nil {
					t.Fatal(err)
				}
				want := 3
				if i == 0 {
					want = 2 // no echo of its own publish
				}
				if len(got) != want {
					t.Errorf("subscriber %d received %d publishes, want %d", i, len(got), want)
				}
			}
			for i, c := range idle {
				if got := c.segments(); len(got) != 0 {
					t.Fatalf("idle session %d received %d segments", i, len(got))
				}
			}
		})
	}
}

// TestTopicIndexLeakFreeRace closes sessions by every path at once — FIN,
// KickIP's RST, supersession, TTL reaping, and SYN takeover — while the
// surviving sessions publish to a topic owned by each of two shards. Run
// under -race. Afterwards no index may hold a closed session, and every
// survivor has received every other survivor's publishes exactly once.
func TestTopicIndexLeakFreeRace(t *testing.T) {
	const workers, publishes = 8, 20
	const ttl, awake = 500_000_000, 1_000_000_000

	var brokers [2]*Broker
	var hosts [2]*ServerHost
	owner := func(topic string) *Broker {
		if topic == "b" {
			return brokers[1]
		}
		return brokers[0]
	}
	for i := range brokers {
		hosts[i], brokers[i] = NewBroker(netproto.IPv4(10, 0, 8, byte(1+i)), indexRoot, []byte("cert"))
		brokers[i].SetShard(i, owner)
		brokers[i].SetSessionTTL(ttl)
	}

	// Worker g owns a survivor and a victim, both homed on shard g%2; the
	// victim leaves by paths[g]. Every device but the TTL victim runs its
	// clock ahead, so only the victim looks idle to the reaper — and no
	// new connection from the supersession path shares its shard, where
	// a reap could catch it between SYN and handshake.
	paths := [workers]string{"fin", "rst", "supersede", "ttl", "syn", "fin", "rst", "syn"}
	survivors := make([]*indexClient, workers)
	victims := make([]*indexClient, workers)
	for g := 0; g < workers; g++ {
		home := hosts[g%2]
		survivors[g] = newIndexClient(deviceAddr(2*g+2), home, 40000)
		victims[g] = newIndexClient(deviceAddr(2*g+3), home, 40000)
		survivors[g].core.Tick(awake)
		if paths[g] != "ttl" {
			victims[g].core.Tick(awake)
		}
	}

	var ready, done sync.WaitGroup
	ready.Add(workers)
	done.Add(workers)
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer done.Done()
			s, v := survivors[g], victims[g]
			var err error
			for _, c := range []*indexClient{s, v} {
				if err == nil {
					err = c.connect()
				}
				for _, topic := range []string{"a", "b"} {
					if err == nil {
						err = c.subscribe(topic)
					}
				}
			}
			ready.Done()
			if err != nil {
				t.Errorf("worker %d setup: %v", g, err)
				return
			}
			<-start
			home := brokers[g%2]
			switch paths[g] {
			case "fin": // orderly close
				v.send(netproto.TCPFin|netproto.TCPAck, nil)
			case "rst": // shard failover
				home.KickIP(v.w.DeviceIP)
			case "supersede": // the device reconnects from a new port
				again := newIndexClient(v.w.DeviceIP, v.host, 40001)
				again.core.Tick(awake)
				if err := again.connect(); err != nil {
					t.Errorf("worker %d reconnect: %v", g, err)
				}
			case "ttl": // idle past the TTL
				home.ReapDead(awake)
			case "syn": // the device reboots and reuses its port
				v.send(netproto.TCPSyn, nil)
			}
			for k := 0; k < publishes; k++ {
				for _, topic := range []string{"a", "b"} {
					s.mqtt(netproto.MQTTPacket{Type: netproto.MQTTPublish, Topic: topic,
						Payload: []byte(fmt.Sprintf("%d/%d", g, k))})
				}
			}
		}(g)
	}
	ready.Wait()
	close(start)
	done.Wait()
	if t.Failed() {
		return
	}

	live := make(map[*BrokerSession]bool)
	for _, b := range brokers {
		for topic, l := range b.indexed() {
			for _, s := range l {
				if s.peer.closed {
					t.Errorf("shard %d indexes a closed session from %08x under %q",
						b.shard, s.RemoteIP(), topic)
				}
				live[s] = true
			}
		}
	}
	if len(live) != workers {
		t.Errorf("indexes hold %d distinct sessions, want the %d survivors", len(live), workers)
	}

	for g, c := range survivors {
		got, err := c.packets()
		if err != nil {
			t.Fatalf("survivor %d: %v", g, err)
		}
		seen := make(map[string]int)
		for _, pkt := range got {
			seen[pkt.Topic+" "+string(pkt.Payload)]++
		}
		for from := 0; from < workers; from++ {
			for k := 0; k < publishes; k++ {
				for _, topic := range []string{"a", "b"} {
					want := 1
					if from == g {
						want = 0
					}
					key := fmt.Sprintf("%s %d/%d", topic, from, k)
					if seen[key] != want {
						t.Fatalf("survivor %d received %q %d times, want %d", g, key, seen[key], want)
					}
				}
			}
		}
	}
}
