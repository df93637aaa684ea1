// IoT security audit: the §4.4 workflow in isolation. Collect addresses
// via the NTP capture servers, scan only the IoT protocols (MQTT,
// MQTTS, AMQP, AMQPS, CoAP), and report broker access control and CoAP
// device exposure — the analyses behind Figure 3 and the Table 3 CoAP
// panel.
//
//	go run ./examples/iot-audit
package main

import (
	"context"
	"fmt"
	"net/netip"
	"slices"

	"ntpscan"
	"ntpscan/internal/analysis"
	"ntpscan/internal/tabulate"
	"ntpscan/internal/zgrab"
)

func main() {
	p := ntpscan.NewPipeline(ntpscan.Config{
		Seed: 11,
		World: ntpscan.WorldConfig{
			DeviceScale: 3e-3,
			AddrScale:   1e-6,
			ASScale:     0.02,
		},
		Workers: 32,
	})

	// The pipeline's scanner assembly, restricted to the IoT module set.
	// Each scan worker appends to its own bucket, so collecting needs no
	// lock.
	cfg := p.ScanConfig()
	cfg.Modules = []zgrab.Module{
		&zgrab.MQTTModule{}, &zgrab.MQTTModule{TLS: true},
		&zgrab.AMQPModule{}, &zgrab.AMQPModule{TLS: true},
		&zgrab.CoAPModule{},
	}
	buckets := make([][]*zgrab.Result, cfg.Workers)
	cfg.OnResultWorker = func(worker int, r *zgrab.Result) {
		buckets[worker] = append(buckets[worker], r)
	}
	scanner := zgrab.NewScanner(cfg)

	fmt.Println("collecting NTP client addresses and probing IoT services live...")
	scanner.Start(context.Background())
	p.Collect(func(batch []netip.Addr) { scanner.SubmitBatch(batch) })
	scanner.Close()

	data := analysis.NewDataset("iot", slices.Concat(buckets...))

	t := tabulate.New("broker access control (NTP-sourced)",
		"protocol", "open", "auth required", "open share").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right)
	for _, proto := range []string{"mqtt", "amqp"} {
		ac := analysis.BrokerAccess(data, proto)
		t.Cells(proto, tabulate.Count(ac.Open), tabulate.Count(ac.AccessControl),
			tabulate.Pct(ac.OpenShare()))
	}
	fmt.Print(t.String())

	ct := tabulate.New("CoAP devices by advertised resources", "group", "#addresses").
		SetAligns(tabulate.Left, tabulate.Right)
	for _, row := range analysis.CoAPGroups(data) {
		ct.Cells(row.Group, tabulate.Count(row.Addrs))
	}
	fmt.Print(ct.String())

	mqtt := analysis.BrokerAccess(data, "mqtt")
	if mqtt.OpenShare() > 0.5 {
		fmt.Printf("\nfinding: %.0f%% of NTP-found MQTT brokers accept anonymous sessions —\n",
			mqtt.OpenShare()*100)
		fmt.Println("end-user IoT deployments are significantly less protected than the")
		fmt.Println("professionally managed brokers hitlist scans see (paper §4.4.2).")
	}
}
