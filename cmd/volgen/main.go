// volgen generates, inspects and converts the phantom volume datasets: the
// file-based half of the pipeline, so volumes can be rendered repeatedly
// (or shipped to rtnode ranks) without regenerating them.
//
//	volgen -dataset head -n 128 -o head.rtvol     # generate and save
//	volgen -i head.rtvol                          # inspect an .rtvol file
package main

import (
	"flag"
	"fmt"
	"os"

	"rtcomp/internal/volume"
)

func main() {
	var (
		dataset = flag.String("dataset", "engine", "phantom dataset: engine, head, brain")
		n       = flag.Int("n", 128, "cubic resolution")
		out     = flag.String("o", "", "output .rtvol path (default <dataset>.rtvol)")
		in      = flag.String("i", "", "inspect an existing .rtvol instead of generating")
		raw     = flag.String("raw", "", "import a headerless 8-bit raw volume (Chapel Hill format)")
		rawDims = flag.String("rawdims", "", "raw volume dimensions as NXxNYxNZ, e.g. 256x256x128")
		down    = flag.Int("downsample", 1, "downsample the volume by this factor before saving")
	)
	flag.Parse()

	var vol *volume.Volume
	switch {
	case *raw != "":
		var nx, ny, nz int
		if _, err := fmt.Sscanf(*rawDims, "%dx%dx%d", &nx, &ny, &nz); err != nil {
			fatal(fmt.Errorf("-raw needs -rawdims NXxNYxNZ: %v", err))
		}
		v, err := volume.LoadRaw(*raw, nx, ny, nz)
		if err != nil {
			fatal(err)
		}
		vol = v
		path := *out
		if path == "" {
			path = *raw + ".rtvol"
		}
		if err := vol.Save(path); err != nil {
			fatal(err)
		}
		fmt.Printf("imported %s -> %s: %dx%dx%d\n", *raw, path, nx, ny, nz)
	case *in != "":
		v, err := volume.Load(*in)
		if err != nil {
			fatal(err)
		}
		vol = v
		fmt.Printf("%s: %dx%dx%d (%d voxels)\n", *in, vol.NX, vol.NY, vol.NZ, vol.NVoxels())
	default:
		vol = volume.ByName(*dataset, *n)
		if vol == nil {
			fatal(fmt.Errorf("unknown dataset %q (have %v)", *dataset, volume.Datasets))
		}
		path := *out
		if path == "" {
			path = *dataset + ".rtvol"
		}
		if err := vol.Save(path); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %dx%dx%d (%d voxels)\n", path, vol.NX, vol.NY, vol.NZ, vol.NVoxels())
	}

	if *down > 1 {
		d, err := vol.Downsample(*down)
		if err != nil {
			fatal(err)
		}
		vol = d
		path := *out
		if path == "" {
			path = fmt.Sprintf("%s-div%d.rtvol", *dataset, *down)
		}
		if err := vol.Save(path); err != nil {
			fatal(err)
		}
		fmt.Printf("downsampled /%d -> %s: %dx%dx%d\n", *down, path, vol.NX, vol.NY, vol.NZ)
	}

	h := vol.Histogram()
	nonAir := 0
	minV, maxV := -1, 0
	for s := 1; s < 256; s++ {
		if h[s] > 0 {
			nonAir += h[s]
			if minV < 0 {
				minV = s
			}
			maxV = s
		}
	}
	fmt.Printf("occupied: %.1f%% of voxels, densities in [%d, %d]\n",
		100*float64(nonAir)/float64(vol.NVoxels()), minV, maxV)
	// Coarse 8-bucket histogram of non-air voxels.
	var buckets [8]int
	for s := 1; s < 256; s++ {
		buckets[s/32] += h[s]
	}
	for b, cnt := range buckets {
		if cnt == 0 {
			continue
		}
		bar := cnt * 48 / maxIntOf(buckets[:])
		fmt.Printf("  [%3d-%3d] %8d %s\n", b*32, b*32+31, cnt, strRepeat('#', bar))
	}
}

func maxIntOf(xs []int) int {
	m := 1
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func strRepeat(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "volgen:", err)
	os.Exit(1)
}
