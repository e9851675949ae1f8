#include "src/workloads/workloads.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace conduit
{

namespace
{

std::uint64_t
scaled(double base, double scale, std::uint64_t minimum = 4096)
{
    // Reject before the cast: converting a negative, NaN or
    // out-of-range double to uint64_t is undefined behaviour.
    const double n = base * scale;
    if (!(scale > 0.0) || !(n < 18446744073709551616.0))
        throw std::invalid_argument(
            "workload scale must be a finite positive number, got " +
            std::to_string(scale));
    return std::max<std::uint64_t>(minimum,
                                   static_cast<std::uint64_t>(n));
}

/**
 * AES-256 encryption (CHStone-derived kernel, bit-sliced).
 *
 * 14 rounds over the state: AddRoundKey (XOR), a bit-sliced SubBytes
 * (the S-box expressed as AND/OR/NOT/XOR gate layers — the standard
 * formulation for bulk-bitwise substrates), ShiftRows (bulk copy
 * with rotation), and a branchless MixColumns built from xtime
 * (shift/mask/XOR). The key expansion and the block (de)formatting
 * loops carry loop-borne dependences / complex control flow and stay
 * scalar, giving the ~65% vectorizable-code coverage of Table 3.
 * The round kernel is almost entirely low-latency bitwise work with
 * high state reuse — the IFP-friendly profile.
 */
LoopProgram
buildAes(const WorkloadParams &p)
{
    LoopProgram lp;
    lp.name = "AES";
    const std::uint64_t n = scaled(1024 * 1024, p.scale);

    const ArrayId state = lp.addArray("state", n);
    const ArrayId tmp = lp.addArray("tmp", n);
    const ArrayId mask = lp.addArray("mask", n);
    const ArrayId rkey = lp.addArray("round_keys", 16 * 15);
    const ArrayId blocks = lp.addArray("blocks", n / 8);

    Loop round;
    round.label = "aes_round";
    round.tripCount = n;
    round.repeat = 14;

    // AddRoundKey: state ^= round_key (broadcast).
    round.body.push_back({OpCode::Xor,
                          {{state, 0, 1}, {rkey, 0, 0}},
                          {state, 0, 1}});
    // Bit-sliced SubBytes: representative gate layers of the
    // Boyar-Peralta S-box circuit (AND/OR/NOT/XOR over bit planes).
    round.body.push_back({OpCode::And,
                          {{state, 0, 1}, {state, 1, 1}},
                          {tmp, 0, 1}});
    round.body.push_back({OpCode::Or,
                          {{state, 2, 1}, {tmp, 0, 1}},
                          {mask, 0, 1}});
    round.body.push_back({OpCode::Not, {{mask, 0, 1}}, {mask, 0, 1}});
    round.body.push_back({OpCode::Xor,
                          {{tmp, 0, 1}, {mask, 0, 1}},
                          {state, 0, 1}});
    // ShiftRows: byte rotation within each 16B block (bulk copy).
    round.body.push_back({OpCode::Copy, {{state, 1, 1}}, {tmp, 0, 1}});
    // MixColumns via branchless xtime:
    //   mask = state >> 7 (AND 0x1b); tmp = (state << 1) ^ mask;
    //   state = tmp ^ state(rot).
    round.body.push_back({OpCode::ShiftR, {{tmp, 0, 1}},
                          {mask, 0, 1}});
    round.body.push_back({OpCode::And,
                          {{mask, 0, 1}, {rkey, 0, 0}},
                          {mask, 0, 1}});
    round.body.push_back({OpCode::ShiftL, {{tmp, 0, 1}}, {tmp, 0, 1}});
    round.body.push_back({OpCode::Xor,
                          {{tmp, 0, 1}, {mask, 0, 1}},
                          {tmp, 0, 1}});
    round.body.push_back({OpCode::Xor,
                          {{tmp, 0, 1}, {state, 2, 1}},
                          {state, 0, 1}});
    lp.loops.push_back(round);

    // Key expansion: sequential dependence chain over the schedule.
    Loop key_sched;
    key_sched.label = "aes_key_schedule";
    key_sched.tripCount = 16 * 15;
    key_sched.carriedDependence = true;
    key_sched.body.push_back({OpCode::Xor,
                              {{rkey, 0, 1}, {rkey, 16, 1}},
                              {rkey, 0, 1}});
    key_sched.body.push_back({OpCode::ShiftL, {{rkey, 0, 1}},
                              {rkey, 0, 1}});
    key_sched.body.push_back({OpCode::Xor,
                              {{rkey, 0, 1}, {rkey, 1, 1}},
                              {rkey, 0, 1}});
    lp.loops.push_back(key_sched);

    // Block (de)formatting with mode-dependent control flow.
    Loop fmt;
    fmt.label = "aes_block_format";
    fmt.tripCount = n / 8;
    fmt.multipleExits = true;
    fmt.body.push_back({OpCode::Xor,
                        {{blocks, 0, 1}, {state, 0, 8}},
                        {blocks, 0, 1}});
    fmt.body.push_back({OpCode::Or,
                        {{blocks, 0, 1}, {blocks, 1, 1}},
                        {blocks, 0, 1}});
    fmt.body.push_back({OpCode::Copy, {{blocks, 0, 1}},
                        {blocks, 0, 1}});
    lp.loops.push_back(fmt);
    return lp;
}

/**
 * XOR filter construction + membership queries.
 *
 * Fingerprint generation over the key stream vectorizes; the three
 * hash-table placements/probes are indirect accesses and stay scalar
 * — which is why only ~16% of the code vectorizes (Table 3). The op
 * mix is dominated by medium-latency arithmetic/predication.
 */
LoopProgram
buildXorFilter(const WorkloadParams &p)
{
    LoopProgram lp;
    lp.name = "XOR Filter";
    const std::uint64_t keys = scaled(1280 * 1024, p.scale);
    const std::uint64_t slots = keys + keys / 4;

    const ArrayId key = lp.addArray("keys", keys);
    const ArrayId fp = lp.addArray("fingerprints", keys);
    const ArrayId h = lp.addArray("hash", keys);
    const ArrayId table = lp.addArray("table", slots);
    const ArrayId result = lp.addArray("result", keys);

    // Vectorizable fingerprint computation (one of many stages).
    Loop hash;
    hash.label = "xf_fingerprint";
    hash.tripCount = keys;
    hash.body.push_back({OpCode::Add,
                         {{key, 0, 1}, {key, 1, 1}},
                         {fp, 0, 1}});
    lp.loops.push_back(hash);

    // Peeling/placement: the three hash positions per key are
    // data-dependent (indirect) and execute as residual scalar code.
    // Only keys on the current peeling frontier are processed per
    // pass, so the scalar dynamic volume is a fraction of the keys.
    Loop place;
    place.label = "xf_place";
    place.tripCount = keys / 4;
    place.repeat = 3;
    place.body.push_back({OpCode::Add,
                          {{h, 0, 1}, {fp, 0, 1, true}},
                          {h, 0, 1, true}});
    place.body.push_back({OpCode::Add,
                          {{table, 0, 1, true}, {fp, 0, 1}},
                          {table, 0, 1, true}});
    place.body.push_back({OpCode::Sub,
                          {{h, 0, 1}, {table, 0, 1, true}},
                          {h, 0, 1, true}});
    place.body.push_back({OpCode::Min,
                          {{table, 0, 1, true}, {h, 0, 1}},
                          {table, 0, 1, true}});
    lp.loops.push_back(place);

    // Queries: three indirect probes + membership compare (scalar),
    // one vector compare for the final verdict.
    Loop query;
    query.label = "xf_query";
    query.tripCount = keys / 4;
    query.body.push_back({OpCode::Add,
                          {{table, 0, 1, true}, {table, 1, 1, true}},
                          {result, 0, 1, true}});
    query.body.push_back({OpCode::Sub,
                          {{result, 0, 1, true}, {table, 2, 1, true}},
                          {result, 0, 1, true}});
    query.body.push_back({OpCode::Max,
                          {{result, 0, 1, true}, {fp, 0, 1, true}},
                          {result, 0, 1, true}});
    query.body.push_back({OpCode::Sub,
                          {{result, 0, 1, true}, {h, 0, 1, true}},
                          {result, 0, 1, true}});
    lp.loops.push_back(query);

    // Final vectorized membership verdict over all keys.
    Loop verdict;
    verdict.label = "xf_verdict";
    verdict.tripCount = keys;
    verdict.body.push_back({OpCode::CmpEq,
                            {{result, 0, 1}, {fp, 0, 1}},
                            {result, 0, 1}});
    lp.loops.push_back(verdict);
    return lp;
}

/**
 * heat-3d (Polybench): 3-D stencil over a ping-pong grid pair.
 * Six neighbor accumulations (medium) and four coefficient
 * multiplies (high) per point; fully vectorizable except a small
 * boundary-fix loop with complex control flow.
 */
LoopProgram
buildHeat3d(const WorkloadParams &p)
{
    LoopProgram lp;
    lp.name = "heat-3d";
    const std::uint64_t g = scaled(56, std::cbrt(p.scale), 24);
    const std::uint64_t points = g * g * g;
    const auto plane = static_cast<std::int64_t>(g * g);
    const auto row = static_cast<std::int64_t>(g);

    const ArrayId a = lp.addArray("A", points);
    const ArrayId b = lp.addArray("B", points);
    const ArrayId acc = lp.addArray("acc", points);

    Loop step;
    step.label = "heat_step";
    step.tripCount = points;
    step.repeat = 2;
    // acc = A[i-g^2] + A[i+g^2]; acc += A[i-g] + A[i+g]; ...
    step.body.push_back({OpCode::Add,
                         {{a, -plane, 1}, {a, plane, 1}},
                         {acc, 0, 1}});
    step.body.push_back({OpCode::Add,
                         {{acc, 0, 1}, {a, -row, 1}},
                         {acc, 0, 1}});
    step.body.push_back({OpCode::Add,
                         {{acc, 0, 1}, {a, row, 1}},
                         {acc, 0, 1}});
    step.body.push_back({OpCode::Add,
                         {{acc, 0, 1}, {a, -1, 1}},
                         {acc, 0, 1}});
    step.body.push_back({OpCode::Add,
                         {{acc, 0, 1}, {a, 1, 1}},
                         {acc, 0, 1}});
    // B = c0*A + c1*acc + c2*acc^2-ish (coefficient multiplies).
    step.body.push_back({OpCode::Mul,
                         {{a, 0, 1}, {a, 0, 0}},
                         {b, 0, 1}});
    step.body.push_back({OpCode::Mac,
                         {{acc, 0, 1}, {a, 0, 0}},
                         {b, 0, 1}});
    step.body.push_back({OpCode::Mul,
                         {{acc, 0, 1}, {acc, 0, 1}},
                         {acc, 0, 1}});
    step.body.push_back({OpCode::Mac,
                         {{acc, 0, 1}, {b, 0, 1}},
                         {b, 0, 1}});
    // Copy back for the next step (ping-pong fold).
    step.body.push_back({OpCode::Copy, {{b, 0, 1}}, {a, 0, 1}});
    lp.loops.push_back(step);

    // Boundary handling: small loop with multiple exits (scalar).
    Loop boundary;
    boundary.label = "heat_boundary";
    boundary.tripCount = 6 * g * g;
    boundary.multipleExits = true;
    boundary.repeat = 2;
    boundary.body.push_back({OpCode::Add,
                             {{b, 0, 1}, {a, 0, 1}},
                             {b, 0, 1}});
    lp.loops.push_back(boundary);
    return lp;
}

/**
 * jacobi-1d (Polybench): B[i] = c * (A[i-1] + A[i] + A[i+1]).
 * Two adds and one multiply per point — the 67%/33% medium/high mix
 * of Table 3 — with two sweeps and a scalar convergence check.
 */
LoopProgram
buildJacobi1d(const WorkloadParams &p)
{
    LoopProgram lp;
    lp.name = "jacobi-1d";
    const std::uint64_t n = scaled(640 * 1024, p.scale);

    const ArrayId a = lp.addArray("A", n);
    const ArrayId b = lp.addArray("B", n);

    Loop sweep;
    sweep.label = "jacobi_sweep";
    sweep.tripCount = n;
    sweep.repeat = 2;
    sweep.body.push_back({OpCode::Add,
                          {{a, -1, 1}, {a, 0, 1}},
                          {b, 0, 1}});
    sweep.body.push_back({OpCode::Add,
                          {{b, 0, 1}, {a, 1, 1}},
                          {b, 0, 1}});
    sweep.body.push_back({OpCode::Mul,
                          {{b, 0, 1}, {a, 0, 0}},
                          {b, 0, 1}});
    sweep.body.push_back({OpCode::Copy, {{b, 0, 1}}, {a, 0, 1}});
    lp.loops.push_back(sweep);

    // Convergence check with early exit (residual scalar region).
    Loop check;
    check.label = "jacobi_check";
    check.tripCount = n / 8;
    check.multipleExits = true;
    check.body.push_back({OpCode::Sub,
                          {{a, 0, 1}, {b, 0, 1}},
                          {b, 0, 1}});
    lp.loops.push_back(check);
    return lp;
}

/**
 * Shared LLM building blocks: a panel-decomposed INT8 GEMM plus
 * normalization/attention/softmax stages. Multiplies pair with
 * explicit accumulation adds, giving the ~50/50 medium/high split of
 * LLaMA2 inference; the transcendental stages (exp, rsqrt) and
 * sampling remain scalar, bounding vectorization coverage at ~70%.
 */
void
appendMatmul(LoopProgram &lp, const std::string &label, ArrayId weights,
             ArrayId in, ArrayId out, std::uint64_t dim,
             std::uint64_t panels)
{
    // Panel-decomposed GEMM, split along the output dimension: each
    // panel streams a distinct weight slice exactly once (weights
    // are not re-read, matching the low weight reuse of Table 3) and
    // produces an independent output slice, so panels execute in
    // parallel like real GEMM tiles.
    for (std::uint64_t panel = 0; panel < panels; ++panel) {
        Loop mm;
        mm.label = label + ".p" + std::to_string(panel);
        mm.tripCount = dim / panels;
        const auto w_off = static_cast<std::int64_t>(panel * dim);
        const auto o_off =
            static_cast<std::int64_t>(panel * (dim / panels));
        mm.body.push_back({OpCode::Mul,
                           {{weights, w_off, 1}, {in, 0, 0}},
                           {out, o_off, 1}});
        mm.body.push_back({OpCode::Add,
                           {{out, o_off, 1}, {in, o_off, 1}},
                           {out, o_off, 1}});
        lp.loops.push_back(mm);
    }
}

void
appendNorm(LoopProgram &lp, const std::string &label, ArrayId x,
           ArrayId tmp, std::uint64_t dim)
{
    // rmsnorm: sum of squares (reduction) + rsqrt (scalar) + scale.
    Loop norm;
    norm.label = label + "_ss";
    norm.tripCount = dim;
    LoopStmt sq{OpCode::Mul, {{x, 0, 1}, {x, 0, 1}}, {tmp, 0, 1}};
    sq.reduction = true;
    norm.body.push_back(sq);
    lp.loops.push_back(norm);

    Loop rs;
    rs.label = label + "_rsqrt";
    rs.tripCount = 64;
    rs.carriedDependence = true; // Newton iteration chain
    rs.body.push_back({OpCode::Rsqrt, {{tmp, 0, 1}}, {tmp, 0, 1}});
    lp.loops.push_back(rs);

    Loop scale;
    scale.label = label + "_scale";
    scale.tripCount = dim;
    scale.body.push_back({OpCode::Mul,
                          {{x, 0, 1}, {tmp, 0, 0}},
                          {x, 0, 1}});
    lp.loops.push_back(scale);
}

void
appendSoftmax(LoopProgram &lp, const std::string &label, ArrayId s,
              ArrayId tmp, std::uint64_t len)
{
    Loop mx;
    mx.label = label + "_max";
    mx.tripCount = len;
    LoopStmt m{OpCode::Max, {{s, 0, 1}}, {tmp, 0, 1}};
    m.reduction = true;
    mx.body.push_back(m);
    lp.loops.push_back(mx);

    Loop sub;
    sub.label = label + "_shift";
    sub.tripCount = len;
    sub.body.push_back({OpCode::Sub,
                        {{s, 0, 1}, {tmp, 0, 0}},
                        {s, 0, 1}});
    lp.loops.push_back(sub);

    // exp(): polynomial with data-dependent branching — scalar.
    Loop ex;
    ex.label = label + "_exp";
    ex.tripCount = len;
    ex.multipleExits = true;
    ex.body.push_back({OpCode::Exp, {{s, 0, 1}}, {s, 0, 1}});
    lp.loops.push_back(ex);

    Loop nrm;
    nrm.label = label + "_norm";
    nrm.tripCount = len;
    nrm.body.push_back({OpCode::Mul,
                        {{s, 0, 1}, {tmp, 0, 0}},
                        {s, 0, 1}});
    lp.loops.push_back(nrm);
}

LoopProgram
buildLlamaInference(const WorkloadParams &p)
{
    LoopProgram lp;
    lp.name = "LlaMA2 Inference";
    const std::uint64_t dim = scaled(96 * 1024, p.scale, 32768);
    const std::uint64_t layers = 8;
    const std::uint64_t tokens = 3;
    const std::uint64_t panels = 6;

    const ArrayId x = lp.addArray("activations", dim);
    const ArrayId tmp = lp.addArray("tmp", dim);
    const ArrayId att = lp.addArray("attn_scores", dim / 4);

    std::vector<ArrayId> wq, wk, wv, wo, w1, w2;
    for (std::uint64_t l = 0; l < layers; ++l) {
        const std::string ln = "L" + std::to_string(l);
        wq.push_back(lp.addArray(ln + ".wq", dim * 6));
        wk.push_back(lp.addArray(ln + ".wk", dim * 6));
        wv.push_back(lp.addArray(ln + ".wv", dim * 6));
        wo.push_back(lp.addArray(ln + ".wo", dim * 6));
        w1.push_back(lp.addArray(ln + ".w1", dim * 6));
        w2.push_back(lp.addArray(ln + ".w2", dim * 6));
    }

    for (std::uint64_t t = 0; t < tokens; ++t) {
        for (std::uint64_t l = 0; l < layers; ++l) {
            const std::string ln =
                "t" + std::to_string(t) + ".L" + std::to_string(l);
            appendNorm(lp, ln + ".rms1", x, tmp, dim);
            appendMatmul(lp, ln + ".wq", wq[l], x, tmp, dim, panels);
            appendMatmul(lp, ln + ".wk", wk[l], x, tmp, dim, panels);
            appendMatmul(lp, ln + ".wv", wv[l], x, tmp, dim, panels);
            appendSoftmax(lp, ln + ".attn", att, tmp, dim / 4);
            appendMatmul(lp, ln + ".wo", wo[l], tmp, x, dim, panels);
            appendNorm(lp, ln + ".rms2", x, tmp, dim);
            appendMatmul(lp, ln + ".w1", w1[l], x, tmp, dim, panels);
            appendMatmul(lp, ln + ".w2", w2[l], tmp, x, dim, panels);
        }
    }

    // Greedy sampling over the logits: argmax with early exit.
    Loop sample;
    sample.label = "sample";
    sample.tripCount = dim;
    sample.multipleExits = true;
    sample.body.push_back({OpCode::Max, {{x, 0, 1}}, {tmp, 0, 1}});
    lp.loops.push_back(sample);
    return lp;
}

LoopProgram
buildLlmTraining(const WorkloadParams &p)
{
    LoopProgram lp;
    lp.name = "LLM Training";
    const std::uint64_t dim = scaled(64 * 1024, p.scale, 32768);
    const std::uint64_t layers = 6;
    const std::uint64_t steps = 2;
    const std::uint64_t microbatches = 4;
    const std::uint64_t panels = 4;

    const ArrayId x = lp.addArray("activations", dim);
    const ArrayId g = lp.addArray("gradients", dim);
    const ArrayId tmp = lp.addArray("tmp", dim);

    std::vector<ArrayId> w, gw, m;
    for (std::uint64_t l = 0; l < layers; ++l) {
        const std::string ln = "L" + std::to_string(l);
        w.push_back(lp.addArray(ln + ".w", dim * 4));
        gw.push_back(lp.addArray(ln + ".gw", dim * 4));
        m.push_back(lp.addArray(ln + ".adam_m", dim * 4));
    }

    for (std::uint64_t s = 0; s < steps; ++s) {
        const std::string sn = "s" + std::to_string(s);
        for (std::uint64_t l = 0; l < layers; ++l) {
            const std::string ln = sn + ".L" + std::to_string(l);
            // Forward: one GEMM panel set.
            appendMatmul(lp, ln + ".fwd", w[l], x, tmp, dim, panels);
            // Backward: grad wrt input + grad wrt weights.
            appendMatmul(lp, ln + ".bwd_in", w[l], g, tmp, dim, panels);

            // Gradient accumulation over microbatches (adds).
            Loop acc;
            acc.label = ln + ".grad_acc";
            acc.tripCount = dim * 4;
            acc.repeat = microbatches;
            acc.body.push_back({OpCode::Add,
                                {{gw[l], 0, 1}, {g, 0, 0}},
                                {gw[l], 0, 1}});
            lp.loops.push_back(acc);

            // Optimizer update: m = b*m + g; w = w - lr*m (mostly
            // adds/sub with one scale multiply).
            Loop upd;
            upd.label = ln + ".adam";
            upd.tripCount = dim * 4;
            upd.body.push_back({OpCode::Add,
                                {{m[l], 0, 1}, {gw[l], 0, 1}},
                                {m[l], 0, 1}});
            upd.body.push_back({OpCode::Sub,
                                {{w[l], 0, 1}, {m[l], 0, 1}},
                                {w[l], 0, 1}});
            upd.body.push_back({OpCode::Sub,
                                {{gw[l], 0, 1}, {gw[l], 0, 1}},
                                {gw[l], 0, 1}});
            lp.loops.push_back(upd);
        }

        // Loss + metric pass with data-dependent control (scalar).
        Loop loss;
        loss.label = sn + ".loss";
        loss.tripCount = dim * 2;
        loss.multipleExits = true;
        loss.body.push_back({OpCode::Sub,
                             {{x, 0, 1}, {g, 0, 1}},
                             {tmp, 0, 1}});
        lp.loops.push_back(loss);
    }
    return lp;
}

} // namespace

std::vector<WorkloadId>
allWorkloads()
{
    return {WorkloadId::Aes, WorkloadId::XorFilter, WorkloadId::Heat3d,
            WorkloadId::Jacobi1d, WorkloadId::LlamaInference,
            WorkloadId::LlmTraining};
}

std::string
workloadName(WorkloadId id)
{
    switch (id) {
      case WorkloadId::Aes: return "AES";
      case WorkloadId::XorFilter: return "XOR Filter";
      case WorkloadId::Heat3d: return "heat-3d";
      case WorkloadId::Jacobi1d: return "jacobi-1d";
      case WorkloadId::LlamaInference: return "LlaMA2 Inference";
      case WorkloadId::LlmTraining: return "LLM Training";
    }
    return "?";
}

LoopProgram
buildWorkload(WorkloadId id, const WorkloadParams &p)
{
    switch (id) {
      case WorkloadId::Aes:
        return buildAes(p);
      case WorkloadId::XorFilter:
        return buildXorFilter(p);
      case WorkloadId::Heat3d:
        return buildHeat3d(p);
      case WorkloadId::Jacobi1d:
        return buildJacobi1d(p);
      case WorkloadId::LlamaInference:
        return buildLlamaInference(p);
      case WorkloadId::LlmTraining:
        return buildLlmTraining(p);
    }
    throw std::invalid_argument("buildWorkload: bad id");
}

std::string
caseStudyName(CaseStudyClass c)
{
    switch (c) {
      case CaseStudyClass::IoIntensive: return "I/O-Intensive";
      case CaseStudyClass::ComputeIntensive:
        return "More Compute-Intensive";
      case CaseStudyClass::Mixed: return "Mixed";
    }
    return "?";
}

LoopProgram
buildCaseStudy(CaseStudyClass c, const WorkloadParams &p)
{
    LoopProgram lp;
    switch (c) {
      case CaseStudyClass::IoIntensive: {
        // Bitmap-index scan: one pass of bulk bitwise predicates
        // over a large table (database scan / bitmap intersection).
        lp.name = "I/O-Intensive";
        const std::uint64_t n = scaled(1536 * 1024, p.scale);
        const ArrayId bits_a = lp.addArray("bitmap_a", n);
        const ArrayId bits_b = lp.addArray("bitmap_b", n);
        const ArrayId out = lp.addArray("out", n);
        Loop scan;
        scan.label = "bitmap_scan";
        scan.tripCount = n;
        scan.body.push_back({OpCode::And,
                             {{bits_a, 0, 1}, {bits_b, 0, 1}},
                             {out, 0, 1}});
        scan.body.push_back({OpCode::Or,
                             {{out, 0, 1}, {bits_a, 0, 1}},
                             {out, 0, 1}});
        lp.loops.push_back(scan);
        break;
      }
      case CaseStudyClass::ComputeIntensive: {
        // Encryption + GEMM blend with heavy per-byte compute and a
        // control-intensive key-schedule (scalar) region.
        lp.name = "More Compute-Intensive";
        const std::uint64_t n = scaled(256 * 1024, p.scale);
        const ArrayId a = lp.addArray("A", n);
        const ArrayId b = lp.addArray("B", n);
        const ArrayId o = lp.addArray("O", n);
        Loop k;
        k.label = "crypto_gemm";
        k.tripCount = n;
        k.repeat = 6;
        k.body.push_back({OpCode::Mul,
                          {{a, 0, 1}, {b, 0, 1}},
                          {o, 0, 1}});
        k.body.push_back({OpCode::Add,
                          {{o, 0, 1}, {a, 0, 1}},
                          {o, 0, 1}});
        k.body.push_back({OpCode::Xor,
                          {{o, 0, 1}, {b, 0, 1}},
                          {o, 0, 1}});
        lp.loops.push_back(k);
        Loop sched;
        sched.label = "key_schedule";
        sched.tripCount = n / 16;
        sched.carriedDependence = true;
        sched.repeat = 6;
        sched.body.push_back({OpCode::Xor,
                              {{a, 0, 1}, {a, 1, 1}},
                              {a, 0, 1}});
        lp.loops.push_back(sched);
        break;
      }
      case CaseStudyClass::Mixed: {
        // Aggregation: scan + predicate + grouped accumulate with a
        // scalar merge phase (database aggregation / sort flavor).
        lp.name = "Mixed";
        const std::uint64_t n = scaled(768 * 1024, p.scale);
        const ArrayId vals = lp.addArray("values", n);
        const ArrayId sel = lp.addArray("selected", n);
        const ArrayId agg = lp.addArray("aggregate", n / 8);
        Loop scan;
        scan.label = "agg_scan";
        scan.tripCount = n;
        scan.body.push_back({OpCode::CmpLt,
                             {{vals, 0, 1}, {vals, 0, 0}},
                             {sel, 0, 1}});
        scan.body.push_back({OpCode::And,
                             {{vals, 0, 1}, {sel, 0, 1}},
                             {sel, 0, 1}});
        LoopStmt fold{OpCode::Add, {{sel, 0, 1}}, {agg, 0, 1}};
        fold.reduction = true;
        scan.body.push_back(fold);
        lp.loops.push_back(scan);
        Loop merge;
        merge.label = "agg_merge";
        merge.tripCount = n / 8;
        merge.multipleExits = true;
        merge.body.push_back({OpCode::Add,
                              {{agg, 0, 1}, {agg, 1, 1}},
                              {agg, 0, 1}});
        lp.loops.push_back(merge);
        break;
      }
    }
    return lp;
}

} // namespace conduit
