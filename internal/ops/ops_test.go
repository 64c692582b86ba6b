package ops

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/qcache"
)

func buildMS(t *testing.T) *core.MasterSlave {
	t.Helper()
	master := core.NewReplica(core.ReplicaConfig{Name: "master"})
	slave := core.NewReplica(core.ReplicaConfig{Name: "slave"})
	ms := core.NewMasterSlave(master, []*core.Replica{slave}, core.MasterSlaveConfig{})
	t.Cleanup(ms.Close)
	return ms
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthzFlips(t *testing.T) {
	ms := buildMS(t)
	srv, err := NewServer("127.0.0.1:0", Options{Cluster: ms})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok:") {
		t.Fatalf("healthy probe: %d %q", code, body)
	}

	ms.Master().Fail()
	for _, r := range ms.Slaves() {
		r.Fail()
	}
	code, body = get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.HasPrefix(body, "unhealthy") {
		t.Fatalf("dead-cluster probe: %d %q", code, body)
	}
}

// faultyCluster is a serving cluster whose replication stopped on faults,
// as a WAN reports a link an apply error stopped.
type faultyCluster struct {
	core.Cluster
	faults []string
}

func (c faultyCluster) Health() core.Health {
	return core.Health{Topology: "wan", Replicas: 2, HealthyReplicas: 2, Faults: c.faults}
}

func TestFaultsReported(t *testing.T) {
	faults := []string{
		"core: wan link eu->us stopped at binlog seq 4: duplicate key",
		"core: wan link us->eu stopped at binlog seq 4: duplicate key",
	}
	srv, err := NewServer("127.0.0.1:0", Options{Cluster: faultyCluster{faults: faults}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A stopped link does not stop serving: the probe stays 200 and names
	// each fault on its own line.
	code, body := get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok:") {
		t.Fatalf("probe with faults: %d %q", code, body)
	}
	for _, f := range faults {
		if !strings.Contains(body, "\nfault: "+f+"\n") {
			t.Errorf("healthz does not report %q:\n%s", f, body)
		}
	}
	_, body = get(t, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(body, "repl_replication_faults 2\n") {
		t.Fatalf("metrics missing repl_replication_faults 2:\n%s", body)
	}
}

func TestMetricsReportAdmissionAndCache(t *testing.T) {
	master := core.NewReplica(core.ReplicaConfig{Name: "master"})
	qc := qcache.New(qcache.Config{MaxEntries: 16})
	adm := admission.NewController(admission.Config{Slots: 4, Queue: 8})
	ms := core.NewMasterSlave(master, nil, core.MasterSlaveConfig{
		QueryCache: qc, Admission: adm,
	})
	defer ms.Close()

	sess := ms.NewSession("app")
	defer sess.Close()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := sess.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE DATABASE d")
	mustExec("USE d")
	mustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec("INSERT INTO t (id, v) VALUES (1, 'x')")
	mustExec("SELECT * FROM t WHERE id = 1")
	mustExec("SELECT * FROM t WHERE id = 1") // cache hit

	srv, err := NewServer("127.0.0.1:0", Options{
		Cluster:      ms,
		Admission:    adm,
		QueryCache:   qc,
		WireRejected: func() uint64 { return 7 },
		Extra: func(w io.Writer) {
			fmt.Fprintf(w, "repl_failovers_total %d\n", 0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	for _, want := range []string{
		"repl_replicas 1",
		"repl_replicas_healthy 1",
		"repl_replication_faults 0",
		"repl_admission_slots 4",
		"repl_admission_active 0",
		"repl_admission_admitted_total ",
		"repl_admission_shed_read_any 0",
		"repl_statement_seconds_p99_write ",
		"repl_qcache_hits_total 1",
		"repl_wire_rejected_conns_total 7",
		"repl_failovers_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

func TestMetricsTrackSlotOccupancy(t *testing.T) {
	ms := buildMS(t)
	adm := admission.NewController(admission.Config{Slots: 2, Queue: 4})
	srv, err := NewServer("127.0.0.1:0", Options{Cluster: ms, Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	slot, err := adm.Acquire("app", admission.ClassWrite, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	_, body := get(t, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(body, "repl_admission_active 1") {
		t.Fatalf("active slot not reported:\n%s", body)
	}
	slot.Release()
	_, body = get(t, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(body, "repl_admission_active 0") {
		t.Fatalf("released slot still reported:\n%s", body)
	}
}
