// Command wan demonstrates Figure 4: three sites (EU, US, Asia), each the
// master for its own region's bookings, interconnected by asynchronous WAN
// replication. Local-region writes are fast; writes to data owned by a
// remote site pay the WAN round trip; all sites converge asynchronously.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/replication"
)

func main() {
	regions := []string{"eu", "us", "asia"}
	sites := make([]*replication.SiteConfig, 0, len(regions))
	for _, region := range regions {
		r := replication.NewReplica(replication.ReplicaConfig{Name: region + "-db"})
		cluster := replication.NewMasterSlave(r, nil, replication.MasterSlaveConfig{ReadFromMaster: true})
		defer cluster.Close()
		boot := cluster.NewSession("boot")
		for _, sql := range []string{
			"CREATE DATABASE travel",
			"USE travel",
			"CREATE TABLE bookings (id INTEGER PRIMARY KEY, region TEXT, what TEXT)",
		} {
			if _, err := boot.Exec(sql); err != nil {
				log.Fatal(err)
			}
		}
		boot.Close()
		sites = append(sites, &replication.SiteConfig{
			Name:      region,
			Cluster:   cluster,
			OwnedKeys: []replication.Value{replication.StringValue(region)},
		})
	}

	wan, err := replication.NewWAN(sites, replication.WANConfig{
		Table: "bookings", Column: "region",
		Latency: 40 * time.Millisecond, // one-way inter-continental delay
	})
	if err != nil {
		log.Fatal(err)
	}
	defer wan.Close()

	eu, err := wan.NewSession("eu", "agent")
	if err != nil {
		log.Fatal(err)
	}
	defer eu.Close()
	if _, err := eu.Exec("USE travel"); err != nil {
		log.Fatal(err)
	}

	timeIt := func(label, sql string) {
		t0 := time.Now()
		if _, err := eu.Exec(sql); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %v\n", label, time.Since(t0).Round(time.Millisecond))
	}
	// Rows carry explicit ids. An AUTO_INCREMENT id is allotted by the site
	// that executes the insert, from its own counter, and a site sees the
	// others' rows only a WAN delay later: eu and asia would both allot 1
	// and the sites would diverge. Each site-owned row gets an id that no
	// other site hands out.
	timeIt("local write (eu-owned row):", "INSERT INTO bookings (id, region, what) VALUES (1, 'eu', 'hotel Berlin')")
	timeIt("remote write (asia-owned row):", "INSERT INTO bookings (id, region, what) VALUES (2, 'asia', 'flight HND')")

	// Reads are always local — and may be stale until async shipping lands.
	fmt.Println("waiting for asynchronous convergence...")
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		res, err := eu.Exec("SELECT COUNT(*) FROM bookings")
		if err != nil {
			log.Fatal(err)
		}
		if res.Rows[0][0].Int() == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var reps []*replication.Replica
	for _, s := range sites {
		reps = append(reps, s.Cluster.Master())
	}
	// Give the last shipper hop a moment, then verify all sites agree.
	time.Sleep(200 * time.Millisecond)
	report, err := replication.CheckDivergence(reps, "travel")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("three-site convergence: %s\n", report)
}
