// Distributed: the same composition as the quickstart, but every byte moves
// through real TCP sockets — four endpoints on loopback, a full mesh of
// hand-rolled framed connections, exactly the deployment shape of
// cmd/rtnode across machines.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"rtcomp"
	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
	"rtcomp/internal/transport/tcpnet"
)

func main() {
	const (
		p    = 4
		w, h = 256, 256
	)
	rng := rand.New(rand.NewSource(7))
	layers := make([]*raster.Image, p)
	for r := range layers {
		layers[r] = raster.PartialImage(rng, w, h, r, p)
	}
	sched, err := rtcomp.TwoNRT(p, 4)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mesh of %d ranks on loopback TCP\n", p)

	var mu sync.Mutex
	var final *raster.Image
	var totalBytes int64
	start := time.Now()
	err = tcpnet.Run(p, tcpnet.Config{DialTimeout: 10 * time.Second}, func(ep *tcpnet.Endpoint) error {
		img, _, err := rtcomp.Composite(ep, sched, layers[ep.Rank()],
			rtcomp.CompositeOptions{Codec: rtcomp.TRLE{}, GatherRoot: 0})
		if err != nil {
			return fmt.Errorf("rank %d: %w", ep.Rank(), err)
		}
		mu.Lock()
		defer mu.Unlock()
		totalBytes += ep.Counters().BytesSent
		if img != nil {
			final = img
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	want := compose.SerialComposite(layers)
	fmt.Printf("composited over TCP in %v, %d bytes on the wire\n", time.Since(start), totalBytes)
	fmt.Printf("max deviation from serial reference: %d levels\n", raster.MaxDiff(final, want))
}
