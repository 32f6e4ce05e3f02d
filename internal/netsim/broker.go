package netsim

import (
	"sort"
	"sync"

	"github.com/cheriot-go/cheriot/internal/netproto"
)

// Broker is an MQTT broker behind the toy TLS, the stand-in for the
// private IoT cloud back-end of §5.3.3. Tests and the case study push
// notifications to subscribers with Publish.
//
// Delivery. Every publish — a device's, a cloud-side Publish, or the
// control plane's — reaches its subscribers through one topic index: a
// per-topic list of subscribed sessions kept by the broker that owns the
// topic. A standalone broker owns every topic; a shard of the sharded
// control plane (internal/cloud) is told at construction which shard owns
// each topic, so a session subscribes in the owner's index wherever it is
// homed and one lookup there finds every subscriber exactly once. A
// publish visits only its topic's entries, never the session table.
//
// Locking. Inbound dispatch (OnData, OnClose) runs under the owning
// ServerHost's mutex, which guards the session tables and all counters.
// Each index has its own leaf mutex: a dispatch may take any shard's
// index lock (to subscribe, unsubscribe, or look up), but never holds one
// while taking a session lock — lookups copy nothing and deliver after
// release, because index lists are replaced, never mutated in place.
// Each session carries its own small mutex protecting the TLS record
// state and topic set, so any shard can deliver a sealed record into a
// session it does not host without taking that host's dispatch lock.
// Session mutexes are leaves too: nothing is acquired under them except
// the TCP peer's send lock and the target World's inbox lock.
//
// State hygiene. A broker shared by thousands of reconnecting devices
// must not grow without bound: a session whose FIN or RST was lost to
// link faults would otherwise linger forever. Two mechanisms bound it:
//
//   - supersession: an MQTT CONNECT from a device IP silently drops every
//     other session from the same IP (the device has abandoned them; real
//     brokers call this client takeover). Always on, and deterministic
//     because it is driven by the device's own connect.
//   - TTL reaping: with SetSessionTTL, sessions idle longer than the TTL
//     (measured against the dispatching device's clock, so no foreign
//     clock is read) are dropped, as are retained messages older than
//     the TTL. Reaping never sends anything to a device, so it cannot
//     perturb a simulation.
type Broker struct {
	host       *ServerHost
	RootSecret []byte
	Cert       []byte
	// serverRandom is fixed per broker for determinism; real randomness
	// adds nothing under the simulation's threat model.
	serverRandom []byte

	// byIP holds every session from each device address, oldest first.
	// An adopted (MQTT-connected) session is always first: adopting drops
	// every other session from the address.
	byIP map[uint32][]*BrokerSession

	// shard is this broker's control-plane shard index (0 standalone),
	// stamped into observability spans; owner maps a topic to the broker
	// whose index holds its subscribers (nil: this broker owns them all).
	shard int
	owner func(topic string) *Broker
	index topicIndex

	// retain, when enabled, stores the last message per topic and replays
	// it to new subscribers (MQTT retained-message semantics).
	retain   bool
	retained map[string]retainedMsg

	// sessionTTL > 0 arms idle-session reaping; dispatches drives the
	// opportunistic reap cadence.
	sessionTTL uint64
	dispatches uint64

	// Counters for tests; guarded by host.mu (prefer Counts when the
	// fleet is still running).
	Connects   int
	Subscribes int
	Publishes  int
	Superseded int
	Reaped     int
}

// topicIndex is one broker's subscription index: for every topic the
// broker owns, the subscribed sessions of every shard, in delivery order
// (home shard, then device address). A list is never modified in place —
// add and remove install a new one — so a lookup hands out the current
// list without copying it.
type topicIndex struct {
	mu   sync.Mutex
	subs map[string][]*BrokerSession
	// forwarded counts deliveries made through this index to sessions
	// homed on a shard other than the one the publish entered; probes
	// counts index entries visited by lookups.
	forwarded int
	probes    int
}

// retainedMsg is one stored message: the payload plus the publisher's
// device-local time, used only for TTL aging.
type retainedMsg struct {
	payload []byte
	at      uint64
}

// reapEvery is how many inbound dispatches pass between opportunistic
// reap scans when a session TTL is armed.
const reapEvery = 1024

// BrokerSession is the broker side of one device connection.
type BrokerSession struct {
	broker *Broker
	peer   *TCPPeer
	// adopted marks the session an MQTT CONNECT made the device's
	// current one; guarded by the home host's mu.
	adopted bool

	// mu guards tls, topics, and lastSeen. It is a leaf lock so foreign
	// shards can deliver into this session concurrently with (but
	// serialized against) the home host's dispatch.
	mu sync.Mutex
	// tls is nil until the handshake completes.
	tls      *netproto.Session
	topics   map[string]bool
	lastSeen uint64
}

// NewBroker builds a broker host listening on the MQTT-over-TLS port.
func NewBroker(ip uint32, rootSecret []byte, cert []byte) (*ServerHost, *Broker) {
	host := NewServerHost(ip)
	b := &Broker{
		host:         host,
		RootSecret:   rootSecret,
		Cert:         cert,
		serverRandom: []byte("broker-hello-rnd"),
		byIP:         make(map[uint32][]*BrokerSession),
		index:        topicIndex{subs: make(map[string][]*BrokerSession)},
		retained:     make(map[string]retainedMsg),
	}
	host.ListenTCP(netproto.PortMQTT, func(p *TCPPeer) TCPApp {
		s := &BrokerSession{broker: b, peer: p, topics: make(map[string]bool)}
		b.byIP[p.RemoteIP] = append(b.byIP[p.RemoteIP], s)
		return s
	})
	return host, b
}

// SetShard makes the broker shard i of a sharded control plane: owner
// returns the shard whose index holds a topic's subscribers, and i labels
// the broker in observability spans and forwarding decisions. Set it
// before any traffic.
func (b *Broker) SetShard(i int, owner func(topic string) *Broker) {
	b.shard, b.owner = i, owner
}

// ownerOf is the broker whose index holds the topic's subscribers.
func (b *Broker) ownerOf(topic string) *Broker {
	if b.owner == nil {
		return b
	}
	return b.owner(topic)
}

// SetRetain enables retained-message semantics: the last publish per
// topic is stored and replayed to new subscribers of that topic.
func (b *Broker) SetRetain(on bool) { b.retain = on }

// SetSessionTTL arms idle-session reaping: sessions (and retained
// messages) idle longer than ttlCycles are dropped. Idle time compares
// the stale entry's last-activity stamp against the clock of whichever
// device's dispatch triggers the scan; choose a TTL comfortably above
// the longest legitimate device idle period plus any inter-device clock
// skew, or reap only at quiescence via ReapDead.
func (b *Broker) SetSessionTTL(ttlCycles uint64) { b.sessionTTL = ttlCycles }

// OnData implements TCPApp: handshake first, then MQTT-in-TLS records.
func (s *BrokerSession) OnData(p *TCPPeer, data []byte) {
	b := s.broker
	now := p.world.Now()
	b.dispatches++
	if b.sessionTTL > 0 && b.dispatches%reapEvery == 0 {
		b.reapLocked(now)
	}

	s.mu.Lock()
	s.lastSeen = now
	if s.tls == nil {
		clientRandom, err := netproto.DecodeClientHello(data)
		if err != nil {
			s.mu.Unlock()
			p.Reset()
			return
		}
		key := netproto.SessionKey(b.RootSecret, clientRandom, b.serverRandom)
		s.tls = netproto.NewSession(key)
		hello := netproto.EncodeServerHello(b.RootSecret, b.serverRandom, b.Cert)
		s.mu.Unlock()
		p.Send(hello)
		return
	}
	plain, err := s.tls.Open(data)
	if err != nil {
		s.mu.Unlock()
		p.Reset()
		return
	}
	s.mu.Unlock()
	pkt, err := netproto.DecodeMQTT(plain)
	if err != nil {
		p.Reset()
		return
	}

	switch pkt.Type {
	case netproto.MQTTConnect:
		b.Connects++
		b.adopt(s)
		s.reply(netproto.MQTTPacket{Type: netproto.MQTTConnAck})
	case netproto.MQTTSubscribe:
		b.Subscribes++
		s.mu.Lock()
		fresh := !s.topics[pkt.Topic]
		s.topics[pkt.Topic] = true
		s.mu.Unlock()
		if fresh {
			b.ownerOf(pkt.Topic).index.add(pkt.Topic, s)
		}
		s.reply(netproto.MQTTPacket{Type: netproto.MQTTSubAck, Topic: pkt.Topic})
		if b.retain {
			if m, ok := b.retained[pkt.Topic]; ok {
				s.reply(netproto.MQTTPacket{Type: netproto.MQTTPublish,
					Topic: pkt.Topic, Payload: m.payload})
			}
		}
	case netproto.MQTTPingReq:
		s.reply(netproto.MQTTPacket{Type: netproto.MQTTPingResp})
	case netproto.MQTTPublish:
		// Device-originated publish: deliver to the other subscribers. The
		// ingress span is recorded first, through the publisher's own
		// World (we are running on the publisher's goroutine), so tracing
		// stays single-writer and deterministic.
		b.Publishes++
		if pkt.TraceID != 0 {
			if o := p.world.Obs(); o != nil {
				o.MQTTIngress(pkt.TraceID, b.shard, now)
			}
		}
		if b.retain {
			b.retained[pkt.Topic] = retainedMsg{payload: append([]byte(nil), pkt.Payload...), at: now}
		}
		b.route(s, pkt)
	}
}

// OnClose implements TCPApp.
func (s *BrokerSession) OnClose(p *TCPPeer) { s.broker.forget(s) }

// adopt records s as the device's current session and silently drops
// every other session from the same address (client takeover): the device
// has abandoned them — its FIN may have been lost to link faults — and
// will never speak on them again. Runs under host.mu.
func (b *Broker) adopt(s *BrokerSession) {
	for _, old := range append([]*BrokerSession(nil), b.byIP[s.peer.RemoteIP]...) {
		if old != s {
			b.dropSession(old, &b.Superseded)
		}
	}
	s.adopted = true
}

// current is the device's adopted session, nil if it has none. Runs
// under host.mu.
func (b *Broker) current(ip uint32) *BrokerSession {
	if l := b.byIP[ip]; len(l) > 0 && l[0].adopted {
		return l[0]
	}
	return nil
}

// dropSession removes a dead session without sending anything to the
// device (the connection is already abandoned on the device side, so an
// RST would perturb the simulation). Runs under host.mu.
func (b *Broker) dropSession(s *BrokerSession, counter *int) {
	delete(b.host.conn, s.peer.key)
	s.peer.markClosed()
	b.forget(s)
	*counter++
}

// forget removes a closed session from the address table and from the
// index of every topic it subscribed to. Runs under host.mu.
func (b *Broker) forget(s *BrokerSession) {
	ip := s.peer.RemoteIP
	l := b.byIP[ip]
	for i, x := range l {
		if x == s {
			l = append(l[:i:i], l[i+1:]...)
			break
		}
	}
	if len(l) == 0 {
		delete(b.byIP, ip)
	} else {
		b.byIP[ip] = l
	}
	for _, topic := range s.topicList() {
		b.ownerOf(topic).index.remove(topic, s)
	}
}

// reapLocked drops sessions and retained messages idle longer than the
// TTL as of now. Runs under host.mu.
func (b *Broker) reapLocked(now uint64) {
	var idle []*BrokerSession
	for _, l := range b.byIP {
		for _, s := range l {
			s.mu.Lock()
			last := s.lastSeen
			s.mu.Unlock()
			if now > last && now-last > b.sessionTTL {
				idle = append(idle, s)
			}
		}
	}
	for _, s := range idle {
		b.dropSession(s, &b.Reaped)
	}
	for topic, m := range b.retained {
		if now > m.at && now-m.at > b.sessionTTL {
			delete(b.retained, topic)
		}
	}
}

// ReapDead runs one reap scan at the given cycle count — typically the
// fleet horizon, once every device has stopped, which makes the result a
// pure function of the run. A no-op unless a session TTL is armed.
func (b *Broker) ReapDead(now uint64) {
	if b.sessionTTL == 0 {
		return
	}
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	b.reapLocked(now)
}

// KickIP resets the device's current session — the broker side of a
// shard failover: the connection dies with an RST and the device must
// reconnect. Safe only from the device's own goroutine (the RST is
// delivered through the device's World).
func (b *Broker) KickIP(ip uint32) bool {
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	s := b.current(ip)
	if s == nil {
		return false
	}
	s.peer.Reset()
	return true
}

// SessionFor returns the device's current connected session, nil if the
// device has no live post-handshake session on this broker.
func (b *Broker) SessionFor(ip uint32) *BrokerSession {
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	s := b.current(ip)
	if s == nil || !s.Connected() {
		return nil
	}
	return s
}

// reply seals and sends one packet on the session, atomically with
// respect to concurrent deliveries (record order must match seal order
// or the device-side MAC check fails).
func (s *BrokerSession) reply(pkt netproto.MQTTPacket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tls == nil {
		return
	}
	s.peer.Send(s.tls.Seal(netproto.EncodeMQTT(pkt)))
}

// Deliver pushes one publish into the session if it is connected and
// subscribed to the topic, returning whether it was sent. A nonzero trace
// ID rides in-band to the subscriber (zero encodes to the untraced
// bytes). Safe from any goroutine: shards deliver into sessions they do
// not host.
func (s *BrokerSession) Deliver(topic string, payload []byte, trace uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tls == nil || !s.topics[topic] {
		return false
	}
	s.peer.Send(s.tls.Seal(netproto.EncodeMQTT(netproto.MQTTPacket{
		Type: netproto.MQTTPublish, Topic: topic, Payload: payload, TraceID: trace})))
	return true
}

// RemoteIP is the device address of the session's connection.
func (s *BrokerSession) RemoteIP() uint32 { return s.peer.RemoteIP }

// Connected reports whether the TLS handshake has completed.
func (s *BrokerSession) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tls != nil
}

// topicList copies the session's topic set.
func (s *BrokerSession) topicList() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.topics))
	for t := range s.topics {
		out = append(out, t)
	}
	return out
}

// deliversBefore is the index's delivery order: home shard, then device
// address.
func deliversBefore(a, b *BrokerSession) bool {
	if a.broker.shard != b.broker.shard {
		return a.broker.shard < b.broker.shard
	}
	return a.peer.RemoteIP < b.peer.RemoteIP
}

// add installs a new list for topic with s inserted after every entry
// that delivers no later than it.
func (ix *topicIndex) add(topic string, s *BrokerSession) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	old := ix.subs[topic]
	i := sort.Search(len(old), func(i int) bool { return deliversBefore(s, old[i]) })
	l := make([]*BrokerSession, 0, len(old)+1)
	l = append(append(append(l, old[:i]...), s), old[i:]...)
	ix.subs[topic] = l
}

// remove installs a new list for topic without s.
func (ix *topicIndex) remove(topic string, s *BrokerSession) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	old := ix.subs[topic]
	for i, x := range old {
		if x != s {
			continue
		}
		if len(old) == 1 {
			delete(ix.subs, topic)
		} else {
			ix.subs[topic] = append(old[:i:i], old[i+1:]...)
		}
		return
	}
}

// lookup returns the topic's subscribers, counting every entry it hands
// out as visited. The caller must not modify the list.
func (ix *topicIndex) lookup(topic string) []*BrokerSession {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	l := ix.subs[topic]
	ix.probes += len(l)
	return l
}

// route is the one delivery path: it looks the topic up in the owning
// shard's index and delivers to every subscriber except from (the
// publishing session, nil for cloud-side publishes), returning how many
// copies were sent. b is the broker the publish entered; a delivery into
// a session homed on another shard counts as forwarded on the owner. A
// traced publish from a device records deliver and forward spans through
// the publisher's World — this runs on the publisher's goroutine.
func (b *Broker) route(from *BrokerSession, pkt netproto.MQTTPacket) int {
	owner := b.ownerOf(pkt.Topic)
	var obs Observer
	var now uint64
	if pkt.TraceID != 0 {
		obs, now = from.peer.world.Obs(), from.peer.world.Now()
	}
	n, forwarded := 0, 0
	for _, s := range owner.index.lookup(pkt.Topic) {
		if s == from || !s.Deliver(pkt.Topic, pkt.Payload, pkt.TraceID) {
			continue
		}
		n++
		home := s.broker.shard
		if obs != nil {
			obs.MQTTDeliver(pkt.TraceID, home, s.RemoteIP(), now)
		}
		if home != b.shard {
			forwarded++
			if obs != nil {
				obs.MQTTForward(pkt.TraceID, b.shard, home, now)
			}
		}
	}
	if forwarded > 0 {
		owner.index.mu.Lock()
		owner.index.forwarded += forwarded
		owner.index.mu.Unlock()
	}
	return n
}

// Publish pushes a notification to every live subscriber of the topic,
// wherever its session is homed — the cloud side sending devices an
// event. Safe to call from any goroutine; delivery to concurrent Worlds
// lands in their inboxes.
func (b *Broker) Publish(topic string, payload []byte) int {
	b.host.mu.Lock()
	b.Publishes++
	if b.retain {
		b.retained[topic] = retainedMsg{payload: append([]byte(nil), payload...)}
	}
	b.host.mu.Unlock()
	return b.route(nil, netproto.MQTTPacket{Type: netproto.MQTTPublish, Topic: topic, Payload: payload})
}

// LiveSessions reports connected (post-handshake) sessions.
func (b *Broker) LiveSessions() int {
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	n := 0
	for _, l := range b.byIP {
		for _, s := range l {
			if s.Connected() {
				n++
			}
		}
	}
	return n
}

// SessionCount reports all broker sessions, including ones mid-handshake.
func (b *Broker) SessionCount() int {
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	n := 0
	for _, l := range b.byIP {
		n += len(l)
	}
	return n
}

// RetainedCount reports stored retained messages.
func (b *Broker) RetainedCount() int {
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	return len(b.retained)
}

// Counts returns a consistent snapshot of the broker counters, safe to
// call while concurrent Worlds are still driving traffic.
func (b *Broker) Counts() (connects, subscribes, publishes int) {
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	return b.Connects, b.Subscribes, b.Publishes
}

// ReapStats reports how many sessions were dropped by supersession and
// by TTL reaping.
func (b *Broker) ReapStats() (superseded, reaped int) {
	b.host.mu.Lock()
	defer b.host.mu.Unlock()
	return b.Superseded, b.Reaped
}

// IndexStats reports the work done through this broker's topic index:
// cross-shard deliveries, and index entries visited by publish lookups —
// one per subscriber of each published topic, never the session table.
func (b *Broker) IndexStats() (forwarded, probes int) {
	b.index.mu.Lock()
	defer b.index.mu.Unlock()
	return b.index.forwarded, b.index.probes
}
