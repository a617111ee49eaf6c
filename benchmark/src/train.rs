//! `pipeline_train`: the real-numerics MiniGpt trained in lockstep at
//! three shapes, each on at most two threads: 1×1 on the single-worker
//! `Trainer` (the baseline), 2×1 on `PipelineTrainer` under the Varuna
//! schedule, and 1×2 data parallel with ring allreduce.

use std::time::Instant;

use varuna_net::ring::ring_allreduce_mean;
use varuna_sched::op::OpKind;
use varuna_sched::schedule::{generate_schedule, StaticSchedule};
use varuna_train::data::{Corpus, VOCAB};
use varuna_train::model::{MiniGpt, ModelConfig};
use varuna_train::ops::cross_entropy;
use varuna_train::optim::Sgd;
use varuna_train::pipeline::PipelineTrainer;
use varuna_train::single::Trainer;

use crate::common::{laps, median, ms, timed, Lap, Mark, Report, SetupSampler, SetupTimes, Tracer};

/// Init and corpus seed of the cross-crate training tests.
pub const DEFAULT_SEED: u64 = 77;

const SEQ: usize = 32;
const DIM: usize = 64;
const HEADS: usize = 4;
const LAYERS: usize = 4;
const M_TOTAL: usize = 32;
const MICRO: usize = 4;
const LR: f32 = 0.1;
const CORPUS_LEN: usize = 20_000;
/// Largest 1×2 loss difference from 1×1, in f32 units in the last place:
/// data parallelism averages each replica's sum of micro-batch values, so
/// the same values are summed in another order. 2×1 must match exactly.
const MAX_LOSS_ULPS: i64 = 4;
/// Largest 1×2 weight difference from 1×1 after one step from identical
/// weights, relative to the largest weight.
const MAX_WEIGHT_DRIFT: f32 = 1e-6;

pub struct Inputs {
    single: Trainer,
    schedule: StaticSchedule,
    dp_schedule: StaticSchedule,
}

fn config(seed: u64) -> ModelConfig {
    ModelConfig {
        vocab: VOCAB,
        seq: SEQ,
        dim: DIM,
        heads: HEADS,
        layers: LAYERS,
        // Untied, as in the trainer's own equivalence tests: a tied
        // embedding is synced at the end of the batch in the pipeline, a
        // different float grouping than the single trainer's.
        tied: false,
        seed,
    }
}

/// Micro-batches per replica at `d` replicas.
fn n_micro(d: usize) -> usize {
    M_TOTAL / (d * MICRO)
}

pub fn setup(seed: u64) -> (Inputs, SetupTimes) {
    let single = Trainer::new(
        config(seed),
        Corpus::synthetic(CORPUS_LEN, seed),
        LR,
        M_TOTAL,
    );
    (
        Inputs {
            single,
            schedule: generate_schedule(2, n_micro(1), usize::MAX),
            dp_schedule: generate_schedule(1, n_micro(2), usize::MAX),
        },
        SetupTimes {
            calibrate_ms: 0.0,
            trace_gen_ms: 0.0,
        },
    )
}

/// Largest weight difference between two models, relative to the largest
/// weight magnitude.
fn weight_drift(a: &MiniGpt, b: &MiniGpt) -> f32 {
    let (mut a, mut b) = (a.clone(), b.clone());
    let (mut diff, mut scale) = (0.0f32, 0.0f32);
    for (x, y) in a.params_mut().iter().zip(b.params_mut().iter()) {
        diff = diff.max(x.w.max_abs_diff(&y.w));
        scale = scale.max(x.w.data.iter().fold(0.0f32, |m, v| m.max(v.abs())));
    }
    diff / scale.max(f32::MIN_POSITIVE)
}

/// Idle share of a static schedule in its unit costs (F = R = 1, B = 2):
/// one minus busy stage-time over stages × makespan.
fn idle_frac(s: &StaticSchedule) -> f64 {
    let busy: f64 = s
        .per_stage
        .iter()
        .flatten()
        .map(|op| match op.kind {
            OpKind::Forward | OpKind::Recompute => 1.0,
            OpKind::Backward => 2.0,
        })
        .sum();
    1.0 - busy / (s.p as f64 * s.makespan)
}

pub fn measure(
    inp: &mut Inputs,
    seconds: f64,
    tr: Option<&mut Tracer>,
    rep: &mut Report,
    sampler: &mut SetupSampler,
) -> Vec<Vec<Lap>> {
    let mut passes = Vec::new();
    let mut step_ms: [Vec<f64>; 3] = Default::default();
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        // Each pass morphs the 2x1 and 1x2 trainers from the baseline's
        // weights, so every shape takes the same step from the same state.
        // The morphs and the checks are outside the timed steps.
        let step = inp.single.step;
        let morph = |p: usize, d: usize| {
            let corpus = inp.single.corpus.clone();
            let model = inp.single.model.clone();
            let mut t = PipelineTrainer::from_model(model, corpus, LR, M_TOTAL, p, d, MICRO);
            t.step = step;
            t
        };
        let (mut pipe, mut data_parallel) = (morph(2, 1), morph(1, 2));
        let mut marks = vec![Mark::now()];
        let (a, t) = timed(|| inp.single.train_minibatch(MICRO));
        step_ms[0].push(t);
        marks.push(Mark::now());
        let factory = inp.schedule.factory();
        let (b, t) = timed(|| pipe.train_minibatch_with(&factory));
        step_ms[1].push(t);
        marks.push(Mark::now());
        let factory = inp.dp_schedule.factory();
        let (c, t) = timed(|| data_parallel.train_minibatch_with(&factory));
        step_ms[2].push(t);
        marks.push(Mark::now());
        passes.push(laps(&marks));
        sampler.sample();

        // The pipeline applies the same per-micro-batch deltas in the same
        // order as the single trainer, so 2x1 is bit-identical. Data
        // parallelism adds replicas' sums, another order: 1x2 agrees to
        // rounding.
        let drift = weight_drift(&inp.single.model, &pipe.reassemble());
        rep.check(drift == 0.0 && a.to_bits() == b.to_bits(), || {
            format!(
                "step {step}: 2x1 differs from 1x1: loss {b:e} vs {a:e}, weights drift {drift:e}"
            )
        });
        let drift = weight_drift(&inp.single.model, &data_parallel.reassemble());
        let ulps =
            |x: f32, y: f32| (i64::from(x.to_bits() as i32) - i64::from(y.to_bits() as i32)).abs();
        rep.check(
            a.is_finite() && drift <= MAX_WEIGHT_DRIFT && ulps(a, c) <= MAX_LOSS_ULPS,
            || format!("step {step}: 1x2 differs from 1x1: loss {c:e} vs {a:e}, weights drift {drift:e}"),
        );
    }
    for (shape, ts) in ["1x1", "2x1", "1x2"].iter().zip(&step_ms) {
        rep.set(
            &format!("train.step_ms.{shape}"),
            median(ts),
            "ms",
            ts.len(),
        );
    }
    let steps = passes.len();
    let tokens = (3 * steps * M_TOTAL * SEQ) as f64;
    let busy_s: f64 = step_ms.iter().flatten().sum::<f64>() / 1e3;
    rep.set("train_tokens_per_s", tokens / busy_s, "tok/s", 3 * steps);
    rep.set("train.idle_frac", idle_frac(&inp.schedule), "frac", 1);
    // Per step at 2x1: each micro-batch's boundary activation goes down
    // and its gradient comes back up, `micro * seq * dim` f32s each way.
    let boundary = (MICRO * SEQ * DIM * 4) as f64;
    rep.set(
        "train.exchange_bytes",
        2.0 * boundary * n_micro(1) as f64,
        "B",
        1,
    );
    if let Some(tr) = tr {
        trace_layers(tr, inp, rep);
    }
    passes
}

/// The traced extras: the baseline's forward, backward and optimizer
/// step re-timed on the next mini-batch of a copy of the model, and the
/// 1×2 gradient exchange re-timed on buffers of the same sizes.
fn trace_layers(tr: &mut Tracer, inp: &mut Inputs, rep: &mut Report) {
    let recall_start = Instant::now();
    let mut model = inp.single.model.clone();
    let (tokens, targets) = inp.single.corpus.batch(M_TOTAL, SEQ, inp.single.step);
    model.zero_grads();
    for c in 0..M_TOTAL / MICRO {
        let (lo, hi) = (c * MICRO * SEQ, (c + 1) * MICRO * SEQ);
        let (logits, cache) = tr.span("train.fwd", None, |_| model.forward(&tokens[lo..hi], MICRO));
        tr.span("train.bwd", None, |_| {
            let (_, dlogits) = cross_entropy(&logits, &targets[lo..hi]);
            model.backward(&cache, &dlogits);
        });
    }
    tr.span("train.opt", None, |_| {
        Sgd::new(LR, 0.0).step(&mut model.params_mut())
    });
    rep.set(
        "train.fwd_ms",
        tr.busy_ms("train.fwd"),
        "ms",
        tr.count("train.fwd"),
    );
    rep.set(
        "train.bwd_ms",
        tr.busy_ms("train.bwd"),
        "ms",
        tr.count("train.bwd"),
    );
    rep.set("train.opt_ms", tr.busy_ms("train.opt"), "ms", 1);

    // One step's ring allreduce at 1x2: one call per parameter tensor of
    // the single stage, each over d = 2 replicas' gradients.
    let d = 2;
    let sizes: Vec<usize> = model.params_mut().iter().map(|p| p.g.data.len()).collect();
    let mut bytes = 0.0f64;
    for &n in &sizes {
        let mut bufs: Vec<Vec<f32>> = (0..d).map(|r| vec![r as f32; n]).collect();
        tr.span("net.ring", None, |_| ring_allreduce_mean(&mut bufs));
        // A ring allreduce sends 2(d-1)/d of the buffer from every rank.
        bytes += 2.0 * (d - 1) as f64 * n as f64 * 4.0;
    }
    rep.set("net.ring.calls", sizes.len() as f64, "count", 1);
    rep.set("net.ring.bytes", bytes, "B", 1);
    rep.set(
        "net.ring.busy_ms",
        tr.busy_ms("net.ring"),
        "ms",
        sizes.len(),
    );
    rep.set("trace.recall_ms", ms(recall_start.elapsed()), "ms", 1);
}
