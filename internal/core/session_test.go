package core

import (
	"context"
	"errors"
	"testing"
)

// TestMSTempTableReadsRunOnMaster: a session's read of its own temp table
// runs on the master, where the table lives. Routed like any other read it
// reached a caught-up slave, which has no such table.
func TestMSTempTableReadsRunOnMaster(t *testing.T) {
	_, sess := newMSCluster(t, 2, MasterSlaveConfig{Consistency: SessionConsistent})
	mustExecC(t, sess.Exec, "CREATE TEMP TABLE pick (id INTEGER PRIMARY KEY)")
	mustExecC(t, sess.Exec, "INSERT INTO pick (id) VALUES (1)")
	for i := 0; i < 20; i++ {
		if got := mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM pick").Rows[0][0].Int(); got != 1 {
			t.Fatalf("read %d of the temp table: COUNT = %d, want 1", i, got)
		}
	}
}

// TestMMTempTablesUnsupported: temp tables are master-slave only. Shipped
// as ordered DDL, CREATE TEMP TABLE created the table in a throwaway
// session on each replica and in none of the client's.
func TestMMTempTablesUnsupported(t *testing.T) {
	_, sessions := newMMCluster(t, 2, MultiMasterConfig{})
	for i := 0; i < 2; i++ {
		if _, err := sessions[0].Exec("CREATE TEMP TABLE pick (id INTEGER PRIMARY KEY)"); !errors.Is(err, ErrUnsupportedStatement) {
			t.Fatalf("CREATE TEMP TABLE #%d: %v, want ErrUnsupportedStatement", i+1, err)
		}
	}
}

// TestSettingsReachLaterSessions: USE, SET CONSISTENCY and SET DEADLINE
// issued before a partition's or a site's first statement hold on the
// master-slave session the router opens there later.
func TestSettingsReachLaterSessions(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) Cluster
		// write reaches one sub-cluster, naming its table unqualified.
		write string
	}{
		{"partitioned", func(t *testing.T) Cluster { pc, _ := newPartitioned(t, 2); return pc },
			"INSERT INTO items (id, name) VALUES (7, 'x')"},
		{"wan", func(t *testing.T) Cluster { w, _ := newWAN(t, 0); return w },
			"INSERT INTO bookings (id, region, what) VALUES (7, 'asia', 'x')"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := tc.open(t).NewConn("late")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for _, sql := range []string{"USE shop", "SET CONSISTENCY STRONG", "SET DEADLINE '1ns'"} {
				mustExecC(t, conn.Exec, sql)
			}
			if _, err := conn.Exec(tc.write); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("write under a 1ns deadline: %v, want a deadline error", err)
			}
			var subs map[*MasterSlave]*MSSession
			switch c := conn.(type) {
			case *PSession:
				subs = c.subs
			case *WSession:
				subs = c.subs
			}
			if len(subs) == 0 {
				t.Fatal("the write opened no sub-cluster session")
			}
			for _, s := range subs {
				if s.cons != StrongConsistent {
					t.Errorf("sub-cluster session reads at %v, want STRONG", s.cons)
				}
			}
			mustExecC(t, conn.Exec, "SET DEADLINE OFF")
			mustExecC(t, conn.Exec, tc.write)
		})
	}
}
