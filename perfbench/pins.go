package main

// pinnedDigests are each workload's output digests at defaultSeed. A
// run at that seed whose digest differs counts every unit as failed
// and exits non-zero. Campaign digests cover the merged run's cell
// records in label order plus the drift report bytes; the spark digest
// covers every job's runtime and stage timing bits.
var pinnedDigests = map[string]string{
	"week-inproc":  "f2338b6f98e9688829f2774ca5e1779cf5debbbc58929c83997eba8269ffb64a",
	"traffic-http": "8bbbba48d9be7a71acefb908cf115bf4a207e168d3590ace471045cb6cff6fff",
	"spark-suite":  "a1f86a1e2ef2f3d8cf0345610f050d52c55e0eb23d88717ab44cac1d1fbd4170",
}
