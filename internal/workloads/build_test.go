package workloads

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
)

// dataDigests pins the SHA-256 of every workload's data segment at
// three scales. The segment is the emulator's initial memory, so these
// bytes fix what every trace and simulated result reads.
var dataDigests = []struct {
	name   string
	scale  int
	sha256 string
}{
	{"compress", 10000, "2edd5911bba0269bdf911824fc4ecd02b99eee0ad3e7b8499ad631127b1295e7"},
	{"compress", 100000, "2edd5911bba0269bdf911824fc4ecd02b99eee0ad3e7b8499ad631127b1295e7"},
	{"compress", 300000, "2edd5911bba0269bdf911824fc4ecd02b99eee0ad3e7b8499ad631127b1295e7"},
	{"gcc", 10000, "d7a1d8c7ce660785882d7223de7e4e88e8c12c83fcea36c44f2a1277f36cd9d8"},
	{"gcc", 100000, "d7a1d8c7ce660785882d7223de7e4e88e8c12c83fcea36c44f2a1277f36cd9d8"},
	{"gcc", 300000, "d7a1d8c7ce660785882d7223de7e4e88e8c12c83fcea36c44f2a1277f36cd9d8"},
	{"go", 10000, "0f6eb79fbd5ed0774829512039d970175dd46b2339dc637e2d7a1a096c243d7a"},
	{"go", 100000, "0f6eb79fbd5ed0774829512039d970175dd46b2339dc637e2d7a1a096c243d7a"},
	{"go", 300000, "0f6eb79fbd5ed0774829512039d970175dd46b2339dc637e2d7a1a096c243d7a"},
	{"li", 10000, "e467ed8a4f215568bac0d671d25d534f842b163fa81b85eb9a677833c53670ef"},
	{"li", 100000, "e467ed8a4f215568bac0d671d25d534f842b163fa81b85eb9a677833c53670ef"},
	{"li", 300000, "e467ed8a4f215568bac0d671d25d534f842b163fa81b85eb9a677833c53670ef"},
	{"perl", 10000, "9203a24fb831321624bb529e0cdb5d323fc55d42af9abe5bbe1a2dcddaa1db23"},
	{"perl", 100000, "9203a24fb831321624bb529e0cdb5d323fc55d42af9abe5bbe1a2dcddaa1db23"},
	{"perl", 300000, "9203a24fb831321624bb529e0cdb5d323fc55d42af9abe5bbe1a2dcddaa1db23"},
	{"mgrid", 10000, "b246d7fe4ece5af054967a028fa80b90e3101dafc0051c32611de42406e1da88"},
	{"mgrid", 100000, "b246d7fe4ece5af054967a028fa80b90e3101dafc0051c32611de42406e1da88"},
	{"mgrid", 300000, "b246d7fe4ece5af054967a028fa80b90e3101dafc0051c32611de42406e1da88"},
	{"tomcatv", 10000, "89f2af64be42832c4c7b722677ec7e15c01fea9780d3702d6fd8a3951bbefa43"},
	{"tomcatv", 100000, "89f2af64be42832c4c7b722677ec7e15c01fea9780d3702d6fd8a3951bbefa43"},
	{"tomcatv", 300000, "89f2af64be42832c4c7b722677ec7e15c01fea9780d3702d6fd8a3951bbefa43"},
	{"applu", 10000, "af48b91862220de01d6de6569e0055246ffd38069e98f6802c17a83db99b7618"},
	{"applu", 100000, "af48b91862220de01d6de6569e0055246ffd38069e98f6802c17a83db99b7618"},
	{"applu", 300000, "af48b91862220de01d6de6569e0055246ffd38069e98f6802c17a83db99b7618"},
	{"swim", 10000, "429891fb31442a5c545595fda7176269670f29fa6e09bd5a728207514e2be06c"},
	{"swim", 100000, "429891fb31442a5c545595fda7176269670f29fa6e09bd5a728207514e2be06c"},
	{"swim", 300000, "429891fb31442a5c545595fda7176269670f29fa6e09bd5a728207514e2be06c"},
	{"hydro2d", 10000, "e1b4ce39b6ecc40f08c6750dfffe68a8260719eae5205b42d4f5f2a79e2c1750"},
	{"hydro2d", 100000, "e1b4ce39b6ecc40f08c6750dfffe68a8260719eae5205b42d4f5f2a79e2c1750"},
	{"hydro2d", 300000, "e1b4ce39b6ecc40f08c6750dfffe68a8260719eae5205b42d4f5f2a79e2c1750"},
	{"listwalk", 10000, "95b83370acb9fc098be4f2a59b8b838ea43df5b0275676b2208f3fa5ac6b8a44"},
	{"listwalk", 100000, "95b83370acb9fc098be4f2a59b8b838ea43df5b0275676b2208f3fa5ac6b8a44"},
	{"listwalk", 300000, "95b83370acb9fc098be4f2a59b8b838ea43df5b0275676b2208f3fa5ac6b8a44"},
	{"hashjoin", 10000, "f34ac29f4996b747a4936c079e8cd6e4a3afe9ebe8f88d1ac3fa71f1535a9f49"},
	{"hashjoin", 100000, "f34ac29f4996b747a4936c079e8cd6e4a3afe9ebe8f88d1ac3fa71f1535a9f49"},
	{"hashjoin", 300000, "f34ac29f4996b747a4936c079e8cd6e4a3afe9ebe8f88d1ac3fa71f1535a9f49"},
	{"qsort", 10000, "769ec4374613162d7f45d0a68338557f6e22a1990ea696c54fd5216c279ee81d"},
	{"qsort", 100000, "b00063c6b5e29d2108222a345394bf201a584f215cba48dcb03d01d9f5421258"},
	{"qsort", 300000, "f28f94c9c574e456c61c1550e8fafc5a4daff2af6f8042970a471e47d76d65d3"},
	{"rdescent", 10000, "653c768446edc60f28e770af79c31a940f0e43d15892dea3a092698837bd0816"},
	{"rdescent", 100000, "be617d0ccd86c6b1b14a7eacb179b26bd4c07a8bb93524d3f3b6eb76b69e8223"},
	{"rdescent", 300000, "180d3d5a28982fd247e6bbb2dcdb296d45a81160f54a522afc7858c4b562b6e7"},
	{"triad", 10000, "ce4d9458613ebd5d7d137344cc6b7c9dd5fcf8ffd8a1be5b99ace515cb1b44cd"},
	{"triad", 100000, "73132d663b4f90b9552752b6f4e65471b44ac053173ea9985ffa43c1d7985cbd"},
	{"triad", 300000, "8ae96027f025d27f4de598cba256c972a150afe9e610f27ef90d8cf26f7e3f01"},
	{"mixmode", 10000, "64c09876790845d7dc5ce71bcd200b72fb881e5af273e5d7c047d82dc019cd33"},
	{"mixmode", 100000, "64c09876790845d7dc5ce71bcd200b72fb881e5af273e5d7c047d82dc019cd33"},
	{"mixmode", 300000, "64c09876790845d7dc5ce71bcd200b72fb881e5af273e5d7c047d82dc019cd33"},
}

func TestWorkloadDataDigests(t *testing.T) {
	if len(dataDigests) != 3*len(All()) {
		t.Fatalf("%d pinned digests for %d workloads at 3 scales", len(dataDigests), len(All()))
	}
	for _, d := range dataDigests {
		w, err := ByName(d.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(w.Build(d.scale).Data)); got != d.sha256 {
			t.Errorf("%s at scale %d: data segment SHA-256 %s, want %s", d.name, d.scale, got, d.sha256)
		}
	}
}

// buildAlloc reports the bytes one Build of w at scale allocates. It
// reads the process-wide allocation counter, so no other test may run
// alongside its callers.
func buildAlloc(w Workload, scale int) (allocated uint64, dataLen int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := w.Build(scale)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, len(p.Data)
}

// TestBuildAllocates bounds what building a program costs: the kernel's
// inputs and the data segment, each once, and little else. Building the
// segment by appending one value at a time allocated 5-9 times its
// size (hashjoin: 3.07 MB for a 524 KB segment). Not parallel: it
// reads the process-wide allocation counter.
func TestBuildAllocates(t *testing.T) {
	for _, w := range All() {
		for _, scale := range []int{10_000, 100_000, 300_000} {
			got, n := buildAlloc(w, scale)
			if limit := 3*uint64(n) + 64<<10; got > limit {
				t.Errorf("%s at scale %d: Build allocates %d B for a %d B data segment, want at most %d",
					w.Name, scale, got, n, limit)
			}
		}
	}
}

// BenchmarkTraceBuild builds each workload's trace at scale 10 000 from
// an empty trace cache. B/op (with -benchmem) covers the whole Trace:
// program build, emulation and the trace columns; build-B/op is what
// the program build alone allocates.
func BenchmarkTraceBuild(b *testing.B) {
	const scale = 10_000
	defer ClearTraceCache()
	for _, w := range All() {
		b.Run(w.Name, func(b *testing.B) {
			build, _ := buildAlloc(w, scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ClearTraceCache()
				w.MustTrace(scale)
			}
			b.ReportMetric(float64(build), "build-B/op")
		})
	}
}
