// Golden canonical echoes of the three spec grammars. Every detector
// checkpoint embeds DetectorSpec::ToKeyValues() and services pass configs
// around in the echoed form, so these bytes are a compatibility contract:
// each case parses an input text and compares the canonical echo with a
// literal captured from the hand-written parse/echo code that preceded the
// key table (one engine case has moved since, on purpose; see its comment).
// Every case also checks that the echo builds exactly when the input does.
// Covered: the defaults, every enum value, each emd= form, the
// emd-fallback and emd-heap-at keys, awkward doubles, whitespace and empty
// tokens, the engine's conditional spill and fault keys, and the batch form.

#include <string>

#include <gtest/gtest.h>

#include "bagcpd/api/spec.h"

namespace bagcpd {
namespace api {
namespace {

struct EchoCase {
  const char* input;
  const char* echo;
};

const EchoCase kDetectorEchoes[] = {
    {"",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"quantizer=kmeans",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"quantizer=kmedoids",
     "quantizer=kmedoids,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"quantizer=lvq",
     "quantizer=lvq,k=8,bin_width=1,histogram_origin=0,normalize=false,"
     "tau=5,tau_prime=5,score=kl,weights=uniform,ground=euclidean,"
     "bootstrap=bayesian,replicates=200,alpha=0.05,distance_floor=1e-12,"
     "emd=exact,emd-heap-at=32,seed=0"},
    {"quantizer=histogram",
     "quantizer=histogram,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"quantizer=centroid",
     "quantizer=centroid,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"score=lr",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=lr,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"score=kl",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"score=skl",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"ground=euclidean",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"ground=sq_euclidean",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=sq_euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"ground=manhattan",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=manhattan,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"weights=uniform",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"weights=discounted",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=discounted,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"bootstrap=bayesian",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"bootstrap=standard",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=standard,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"emd=exact",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"emd=sinkhorn",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=sinkhorn:0.1,emd-heap-at=32,seed=0"},
    {"emd=sinkhorn:0.05",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=sinkhorn:0.05,emd-heap-at=32,seed=0"},
    {"emd=sinkhorn:0.2:250:1e-8",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=sinkhorn:0.2:250:1e-08,emd-heap-at=32,"
     "seed=0"},
    {"emd=sinkhorn:0.1:100:1e-06",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=sinkhorn:0.1,emd-heap-at=32,seed=0"},
    {"emd=sliced",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=sliced:16,emd-heap-at=32,seed=0"},
    {"emd=sliced:32",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=sliced:32,emd-heap-at=32,seed=0"},
    {"emd-fallback=exact",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,emd-fallback=exact,"
     "seed=0"},
    {"emd-fallback=none",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"emd-fallback=exact,emd=sliced:8",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=sliced:8,emd-heap-at=32,"
     "emd-fallback=exact,seed=0"},
    {"emd-heap-at=0",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=0,seed=0"},
    {"emd-heap-at=1",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=1,seed=0"},
    {"emd-heap-at=96",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=96,seed=0"},
    {"emd-heap-at=96,emd=sinkhorn:0.1",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=sinkhorn:0.1,emd-heap-at=96,seed=0"},
    {"alpha=1e-12",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=1e-12,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"alpha=0.1",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.1,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"alpha=0.30000000000000004",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,"
     "alpha=0.30000000000000004,distance_floor=1e-12,emd=exact,"
     "emd-heap-at=32,seed=0"},
    {"bin_width=0.1",
     "quantizer=kmeans,k=8,bin_width=0.1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"histogram_origin=1e300",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=1e+300,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"histogram_origin=-0",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=-0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"histogram_origin=-2.5e-7",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=-2.5e-07,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"distance_floor=1e-12",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"distance_floor=5e-324",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=5e-324,emd=exact,emd-heap-at=32,seed=0"},
    {"normalize=true",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=true,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"normalize=0",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"k=0",
     "quantizer=kmeans,k=0,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"k=64",
     "quantizer=kmeans,k=64,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"replicates=-1",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=-1,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"replicates=0",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=0,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"tau=2,tau_prime=1000",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=2,tau_prime=1000,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"seed=18446744073709551615",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,"
     "seed=18446744073709551615"},
    {" tau = 7 ,, tau_prime=3, ",
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=7,tau_prime=3,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32,seed=0"},
    {"quantizer=histogram,k=3,bin_width=0.25,histogram_origin=-2,"
     "normalize=1,tau=7,tau_prime=3,score=lr,weights=discounted,"
     "ground=manhattan,bootstrap=standard,replicates=77,alpha=0.01,"
     "distance_floor=1e-10,emd=sinkhorn:0.1:250:1e-8,emd-heap-at=96,"
     "emd-fallback=exact,seed=5",
     "quantizer=histogram,k=3,bin_width=0.25,histogram_origin=-2,"
     "normalize=true,tau=7,tau_prime=3,score=lr,weights=discounted,"
     "ground=manhattan,bootstrap=standard,replicates=77,alpha=0.01,"
     "distance_floor=1e-10,emd=sinkhorn:0.1:250:1e-08,emd-heap-at=96,"
     "emd-fallback=exact,seed=5"},
};

const EchoCase kEngineEchoes[] = {
    {"",
     "shards=0,queue=1024,collect=true,max_idle=0,seed=0,"
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32"},
    {"shards=4,queue=128,collect=true,max_idle=500,seed=42,"
     "quantizer=kmeans,tau=5,emd=sinkhorn:0.1",
     "shards=4,queue=128,collect=true,max_idle=500,seed=42,"
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=sinkhorn:0.1,emd-heap-at=32"},
    {"spill_dir=/var/spill,spill_budget=4096,spill_gc=100",
     "shards=0,queue=1024,collect=true,max_idle=0,seed=0,"
     "spill_dir=/var/spill,spill_budget=4096,spill_gc=100,"
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32"},
    {"spill_dir=/var/spill",
     "shards=0,queue=1024,collect=true,max_idle=0,seed=0,"
     "spill_dir=/var/spill,quantizer=kmeans,k=8,bin_width=1,"
     "histogram_origin=0,normalize=false,tau=5,tau_prime=5,score=kl,"
     "weights=uniform,ground=euclidean,bootstrap=bayesian,"
     "replicates=200,alpha=0.05,distance_floor=1e-12,emd=exact,"
     "emd-heap-at=32"},
    // Invalid: each key lacks the one it needs. The keys echo as set, so
    // the echo is rejected too (this case moved on purpose: the echo used
    // to drop them and read back as a valid config).
    {"spill_budget=4096,spill_gc=100,fault_backoff=10,snapshot_every=5",
     "shards=0,queue=1024,collect=true,max_idle=0,seed=0,"
     "spill_budget=4096,spill_gc=100,fault_backoff=10,snapshot_every=5,"
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32"},
    {"fault_budget=3,fault_backoff=10,snapshot_every=5",
     "shards=0,queue=1024,collect=true,max_idle=0,seed=0,fault_budget=3,"
     "fault_backoff=10,snapshot_every=5,quantizer=kmeans,k=8,"
     "bin_width=1,histogram_origin=0,normalize=false,tau=5,tau_prime=5,"
     "score=kl,weights=uniform,ground=euclidean,bootstrap=bayesian,"
     "replicates=200,alpha=0.05,distance_floor=1e-12,emd=exact,"
     "emd-heap-at=32"},
    {"fault_budget=3",
     "shards=0,queue=1024,collect=true,max_idle=0,seed=0,fault_budget=3,"
     "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
     "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
     "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
     "distance_floor=1e-12,emd=exact,emd-heap-at=32"},
    {"fault=detector.push:every-n:15",
     "shards=0,queue=1024,collect=true,max_idle=0,seed=0,"
     "fault=detector.push:every-n:15,quantizer=kmeans,k=8,bin_width=1,"
     "histogram_origin=0,normalize=false,tau=5,tau_prime=5,score=kl,"
     "weights=uniform,ground=euclidean,bootstrap=bayesian,"
     "replicates=200,alpha=0.05,distance_floor=1e-12,emd=exact,"
     "emd-heap-at=32"},
    {"shards=2,queue=64,collect=false,max_idle=100,seed=9,"
     "spill_dir=/var/spill,spill_budget=1048576,spill_gc=64,"
     "fault_budget=2,fault_backoff=8,snapshot_every=4,"
     "fault=emd.solve:every-n:60:3,tau=3,tau_prime=3,replicates=0,"
     "emd=sliced:8,emd-heap-at=0,emd-fallback=exact",
     "shards=2,queue=64,collect=false,max_idle=100,seed=9,"
     "spill_dir=/var/spill,spill_budget=1048576,spill_gc=64,"
     "fault_budget=2,fault_backoff=8,snapshot_every=4,"
     "fault=emd.solve:every-n:60:3,quantizer=kmeans,k=8,bin_width=1,"
     "histogram_origin=0,normalize=false,tau=3,tau_prime=3,score=kl,"
     "weights=uniform,ground=euclidean,bootstrap=bayesian,replicates=0,"
     "alpha=0.05,distance_floor=1e-12,emd=sliced:8,emd-heap-at=0,"
     "emd-fallback=exact"},
};

const EchoCase kBatchEchoes[] = {
    {"",
     "shards=1,seed=0,quantizer=kmeans,k=8,bin_width=1,"
     "histogram_origin=0,normalize=false,tau=5,tau_prime=5,score=kl,"
     "weights=uniform,ground=euclidean,bootstrap=bayesian,"
     "replicates=200,alpha=0.05,distance_floor=1e-12,emd=exact,"
     "emd-heap-at=32"},
    {"shards=8,seed=42,quantizer=kmeans,tau=4,replicates=0",
     "shards=8,seed=42,quantizer=kmeans,k=8,bin_width=1,"
     "histogram_origin=0,normalize=false,tau=4,tau_prime=5,score=kl,"
     "weights=uniform,ground=euclidean,bootstrap=bayesian,replicates=0,"
     "alpha=0.05,distance_floor=1e-12,emd=exact,emd-heap-at=32"},
    {"seed=18446744073709551615,emd=sliced:16,emd-fallback=exact",
     "shards=1,seed=18446744073709551615,quantizer=kmeans,k=8,"
     "bin_width=1,histogram_origin=0,normalize=false,tau=5,tau_prime=5,"
     "score=kl,weights=uniform,ground=euclidean,bootstrap=bayesian,"
     "replicates=200,alpha=0.05,distance_floor=1e-12,emd=sliced:16,"
     "emd-heap-at=32,emd-fallback=exact"},
};

template <typename Spec, std::size_t N>
void ExpectEchoes(const EchoCase (&cases)[N]) {
  for (const EchoCase& c : cases) {
    Result<Spec> parsed = Spec::FromKeyValues(c.input);
    ASSERT_TRUE(parsed.ok()) << c.input << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->ToKeyValues(), c.echo) << "input: '" << c.input << "'";
    // The echo is a fixed point of parse-then-echo.
    Result<Spec> reparsed = Spec::FromKeyValues(c.echo);
    ASSERT_TRUE(reparsed.ok()) << c.echo;
    EXPECT_EQ(reparsed->ToKeyValues(), c.echo);
    // And it describes the same config: Build() accepts the echo exactly
    // when it accepts the input.
    EXPECT_EQ(reparsed->Build().ok(), parsed->Build().ok())
        << "input: '" << c.input << "'";
  }
}

TEST(SpecEchoGoldenTest, DetectorEchoesAreByteIdentical) {
  ExpectEchoes<DetectorSpec>(kDetectorEchoes);
}

TEST(SpecEchoGoldenTest, FluentSettersEchoLikeTheirKeys) {
  EXPECT_EQ(DetectorSpec()
                .EmdFallbackExact(true)
                .EmdHeapAt(0)
                .Emd("sinkhorn:0.1")
                .ToKeyValues(),
            "quantizer=kmeans,k=8,bin_width=1,histogram_origin=0,"
            "normalize=false,tau=5,tau_prime=5,score=kl,weights=uniform,"
            "ground=euclidean,bootstrap=bayesian,replicates=200,alpha=0.05,"
            "distance_floor=1e-12,emd=sinkhorn:0.1,emd-heap-at=0,"
            "emd-fallback=exact,seed=0");
  EXPECT_EQ(DetectorSpec()
                .Score("kl")
                .Weights("discounted")
                .Ground("manhattan")
                .Quantizer("lvq")
                .Bootstrap("standard")
                .Emd(EmdSolverKind::kSliced)
                .ToKeyValues(),
            "quantizer=lvq,k=8,bin_width=1,histogram_origin=0,normalize=false,"
            "tau=5,tau_prime=5,score=kl,weights=discounted,ground=manhattan,"
            "bootstrap=standard,replicates=200,alpha=0.05,distance_floor=1e-12,"
            "emd=sliced:16,emd-heap-at=32,seed=0");
}

TEST(SpecEchoGoldenTest, EngineEchoesAreByteIdentical) {
  ExpectEchoes<EngineSpec>(kEngineEchoes);
}

TEST(SpecEchoGoldenTest, BatchEchoesAreByteIdentical) {
  ExpectEchoes<BatchSpec>(kBatchEchoes);
}

TEST(SpecEchoGoldenTest, DetectorErrorMessagesAreByteIdentical) {
  EXPECT_EQ(DetectorSpec::FromKeyValues("taau=5").status().message(),
            "unknown key 'taau' (known: quantizer, k, bin_width,"
            " histogram_origin, normalize, tau, tau_prime, score, weights,"
            " ground, bootstrap, replicates, alpha, distance_floor, emd,"
            " emd-heap-at, emd-fallback, seed)");
  EXPECT_EQ(DetectorSpec::FromKeyValues("tau=5,score").status().message(),
            "malformed token 'score' (expected key=value)");
}

}  // namespace
}  // namespace api
}  // namespace bagcpd
