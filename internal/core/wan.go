package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// wanUser tags replication-applied events so shippers do not re-ship them
// (breaking the multi-way replication cycle).
const wanUser = "wan-replication"

// SiteConfig describes one geographical site (Figure 4).
type SiteConfig struct {
	Name string
	// Cluster is the site's local replicated database.
	Cluster *MasterSlave
	// OwnedKeys lists the partition-key values this site is master for
	// (multi-way master/slave: "each site is master for its local
	// geographical data").
	OwnedKeys []sqltypes.Value
}

// WANConfig configures the multi-site deployment.
type WANConfig struct {
	// Table and Column identify the geographically partitioned table and
	// its routing key (e.g. bookings.region).
	Table  string
	Column string
	// Latency is the symmetric one-way inter-site delay; per-pair
	// overrides go in PairLatency keyed "a->b".
	Latency     time.Duration
	PairLatency map[string]time.Duration
	// SyncForward makes remote-owner writes synchronous (wait for the
	// owner's commit over the WAN); asynchronous forwarding is not
	// offered because it would silently lose conflicts — the paper's
	// point that "asynchronous replication is preferred ... applications
	// are usually partitioned" (§4.3.4.1), which is exactly this design.
	SyncForward bool
}

// WAN interconnects site clusters with asynchronous replication of owned
// updates and synchronous forwarding of remote-owner writes.
type WAN struct {
	cfg   WANConfig
	sites []*SiteConfig
	// adm gates statements at the geo router; in layered deployments attach
	// the controller HERE and leave the site clusters unguarded, or every
	// statement pays admission twice.
	adm *admission.Controller

	mu       sync.Mutex
	shippers []func() // cancel functions
	// linkErrs holds, per site→site link ("from->to"), the first apply
	// error at the destination; it stopped that link's shipper.
	linkErrs map[string]error
}

// SetAdmission attaches an overload controller to the geo router. Call it
// before serving traffic (it is not synchronized with sessions).
func (w *WAN) SetAdmission(c *admission.Controller) { w.adm = c }

// Admission returns the router's admission controller (nil when off).
func (w *WAN) Admission() *admission.Controller { return w.adm }

// NewWAN wires the sites and starts cross-site shipping.
func NewWAN(sites []*SiteConfig, cfg WANConfig) (*WAN, error) {
	if len(sites) < 2 {
		return nil, fmt.Errorf("core: a WAN needs at least 2 sites")
	}
	w := &WAN{cfg: cfg, sites: sites, linkErrs: make(map[string]error)}
	for _, from := range sites {
		for _, to := range sites {
			if from == to {
				continue
			}
			w.startShipper(from, to)
		}
	}
	return w, nil
}

// latency returns the one-way delay from site a to site b.
func (w *WAN) latency(a, b string) time.Duration {
	if d, ok := w.cfg.PairLatency[a+"->"+b]; ok {
		return d
	}
	return w.cfg.Latency
}

// startShipper asynchronously applies `from`'s locally-originated commits
// at `to`, delayed by the inter-site latency: DDL by its statement,
// everything else by its write set, as a slave applies its master's. The
// applied event is logged at `to` as wanUser's, so `to`'s own shippers skip
// it. An apply error stops the link: applying later events past a lost one
// would let the sites diverge silently, so the error is kept for LinkErrors
// and Health.
func (w *WAN) startShipper(from, to *SiteConfig) {
	ch, cancel := from.Cluster.Master().Engine().Binlog().Subscribe(1024)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			case ev, ok := <-ch:
				if !ok {
					return
				}
				if ev.User == wanUser {
					continue // applied here by another site: don't cycle
				}
				time.Sleep(w.latency(from.Name, to.Name))
				// Async apply at the destination master; its local slaves
				// pick the event up via normal intra-site shipping.
				ev.User = wanUser
				if _, err := to.Cluster.Master().Engine().ApplyEvents([]engine.Event{ev}); err != nil {
					w.mu.Lock()
					w.linkErrs[from.Name+"->"+to.Name] = fmt.Errorf("core: wan link %s->%s stopped at binlog seq %d: %w",
						from.Name, to.Name, ev.Seq, err)
					w.mu.Unlock()
					cancel()
					return
				}
			}
		}
	}()
	w.mu.Lock()
	w.shippers = append(w.shippers, func() { close(stop); cancel() })
	w.mu.Unlock()
}

// LinkErrors returns the error that stopped each stopped site→site link,
// keyed "from->to". A link that is still shipping has no entry.
func (w *WAN) LinkErrors() map[string]error {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]error, len(w.linkErrs))
	for link, err := range w.linkErrs {
		out[link] = err
	}
	return out
}

// Close stops cross-site shipping (site clusters remain running).
func (w *WAN) Close() {
	w.mu.Lock()
	shippers := w.shippers
	w.shippers = nil
	w.mu.Unlock()
	for _, cancel := range shippers {
		cancel()
	}
}

// ownerOf returns the site owning a key, or nil.
func (w *WAN) ownerOf(key sqltypes.Value) *SiteConfig {
	for _, s := range w.sites {
		for _, k := range s.OwnedKeys {
			if sqltypes.Equal(k, key) {
				return s
			}
		}
	}
	return nil
}

// site returns a site by name.
func (w *WAN) site(name string) *SiteConfig {
	for _, s := range w.sites {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// NewConn implements Cluster: the connection is homed at the first
// configured site. Use NewSession to home a connection elsewhere.
func (w *WAN) NewConn(user string) (Conn, error) {
	return w.NewSession(w.sites[0].Name, user)
}

// Authenticate implements Cluster against the first site's cluster.
func (w *WAN) Authenticate(user, password string) error {
	return w.sites[0].Cluster.Authenticate(user, password)
}

// Health implements Cluster, aggregated over every site.
func (w *WAN) Health() Health {
	h := Health{Topology: "wan"}
	for _, s := range w.sites {
		sh := s.Cluster.Health()
		h.Replicas += sh.Replicas
		h.HealthyReplicas += sh.HealthyReplicas
		if sh.Head > h.Head {
			h.Head = sh.Head
		}
		if sh.MaxLag > h.MaxLag {
			h.MaxLag = sh.MaxLag
		}
	}
	for _, err := range w.LinkErrors() {
		h.Faults = append(h.Faults, err.Error())
	}
	sort.Strings(h.Faults) // each names its link, so this orders by link
	return h
}

// WSession is a client session attached to one site. It opens a session
// on each site it reaches: the local one, and the owners of the keys it
// writes.
type WSession struct {
	routedSession
	w     *WAN
	local *SiteConfig
	// inTxn tracks the explicit transaction open on the LOCAL site's
	// session: remote-owner writes must be refused while it is set, or
	// they would silently autocommit at the owning site outside the
	// transaction (unrollbackable).
	inTxn bool
}

// NewSession opens a session homed at the named site. Its read guarantee
// and statement budget default to the local site's configuration.
func (w *WAN) NewSession(site, user string) (*WSession, error) {
	s := w.site(site)
	if s == nil {
		return nil, fmt.Errorf("core: unknown site %q", site)
	}
	ws := &WSession{w: w, local: s}
	ws.routedSession = newRoutedSession(ws, user, w.adm, s.Cluster.cfg)
	return ws, nil
}

// Close releases all site sessions.
func (ws *WSession) Close() { ws.closeSubs() }

// ExecStmtArgs routes one statement: reads and un-keyed statements go to
// the local site; keyed writes go to the owning site (paying the WAN round
// trip when remote). The geo router inspects literal key values, so
// arguments are inlined into the AST up front. Settings hold on every site
// session, current and future: a forwarded write runs at the level the
// client announced.
func (ws *WSession) ExecStmtArgs(st sqlparse.Statement, args ...sqltypes.Value) (*engine.Result, error) {
	st, err := bindArgs(st, args)
	if err != nil {
		return nil, err
	}
	if res, ok, err := ws.setting(st, ws.forward); ok {
		return res, err
	}
	switch st.(type) {
	case *sqlparse.BeginTxn, *sqlparse.CommitTxn, *sqlparse.RollbackTxn:
		// Transactions run on the local site's cluster. Track the bracket
		// so remote-owner writes can be refused while one is open; a
		// failed COMMIT still ends it (the engine terminated its txn).
		sub, err := ws.sub(ws.local.Cluster)
		if err != nil {
			return nil, err
		}
		res, err := sub.ExecStmt(st)
		if _, isBegin := st.(*sqlparse.BeginTxn); isBegin {
			ws.inTxn = err == nil
		} else {
			ws.inTxn = false
		}
		return res, err
	}
	slot, _, err := ws.admit(ws.class(st, ws.inTxn))
	if err != nil {
		return nil, err
	}
	res, err := ws.execRouted(st)
	slot.Done(err)
	return res, err
}

// execRouted dispatches an admitted statement to the owning site.
func (ws *WSession) execRouted(st sqlparse.Statement) (*engine.Result, error) {
	if st.IsRead() {
		// "Reads are always local" — possibly stale, by design.
		s, err := ws.sub(ws.local.Cluster)
		if err != nil {
			return nil, err
		}
		return s.ExecStmt(st)
	}
	owner := ws.local
	if key, ok := ws.writeKey(st); ok {
		if o := ws.w.ownerOf(key); o != nil {
			owner = o
		}
	}
	if ws.inTxn && owner != ws.local {
		// The open transaction lives on the local site; forwarding this
		// write would autocommit it at the owner, outside the transaction
		// — a rollback could never undo it. Refuse, like the partition
		// router refuses cross-partition statements.
		return nil, fmt.Errorf("%w: transaction is local to site %s; write for key owned by %s cannot join it (no cross-site 2PC)",
			ErrUnsupportedStatement, ws.local.Name, owner.Name)
	}
	s, err := ws.sub(owner.Cluster)
	if err != nil {
		return nil, err
	}
	if owner == ws.local {
		return s.ExecStmt(st)
	}
	// Remote-owner write: synchronous forward over the WAN (round trip).
	time.Sleep(ws.w.latency(ws.local.Name, owner.Name))
	res, err := s.ExecStmt(st)
	time.Sleep(ws.w.latency(owner.Name, ws.local.Name))
	return res, err
}

// writeKey extracts the geo-partition key from a write statement.
func (ws *WSession) writeKey(st sqlparse.Statement) (sqltypes.Value, bool) {
	cfg := ws.w.cfg
	switch s := st.(type) {
	case *sqlparse.Insert:
		if !equalFoldASCII(s.Table.Name, cfg.Table) {
			return sqltypes.Null, false
		}
		for i, c := range s.Columns {
			if equalFoldASCII(c, cfg.Column) && len(s.Rows) > 0 {
				if lit, ok := s.Rows[0][i].(*sqlparse.Literal); ok {
					return lit.Val, true
				}
			}
		}
	case *sqlparse.Update:
		if equalFoldASCII(s.Table.Name, cfg.Table) {
			return extractKeyEquality(s.Where, cfg.Column)
		}
	case *sqlparse.Delete:
		if equalFoldASCII(s.Table.Name, cfg.Table) {
			return extractKeyEquality(s.Where, cfg.Column)
		}
	}
	return sqltypes.Null, false
}
