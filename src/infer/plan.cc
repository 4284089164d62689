#include "infer/plan.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/simd.h"

namespace sim2rec {
namespace infer {
namespace {

Act MapAct(nn::Activation act) {
  switch (act) {
    case nn::Activation::kIdentity:
      return Act::kIdentity;
    case nn::Activation::kTanh:
      return Act::kTanh;
    case nn::Activation::kRelu:
      return Act::kRelu;
    case nn::Activation::kSigmoid:
      return Act::kSigmoid;
    case nn::Activation::kSoftplus:
      return Act::kSoftplus;
  }
  return Act::kIdentity;
}

/// Copies a [rows x cols] tensor into a packed float vector, rejecting
/// shape mismatches, non-finite doubles, and values that overflow
/// float32 range.
bool PackFloats(const nn::Tensor& t, int rows, int cols,
                const std::string& what, std::vector<float>* out,
                std::string* error) {
  if (t.rows() != rows || t.cols() != cols) {
    *error = what + ": expected [" + std::to_string(rows) + " x " +
             std::to_string(cols) + "], got " + t.ShapeString();
    return false;
  }
  const size_t count = static_cast<size_t>(rows) * cols;
  out->resize(count);
  for (size_t i = 0; i < count; ++i) {
    const double d = t[i];
    if (!std::isfinite(d)) {
      *error = what + ": non-finite value at flat index " +
               std::to_string(i);
      return false;
    }
    const float f = static_cast<float>(d);
    if (!std::isfinite(f)) {
      *error = what + ": value " + std::to_string(d) +
               " overflows float32";
      return false;
    }
    (*out)[i] = f;
  }
  return true;
}

}  // namespace

FreezeResult InferencePlan::Freeze(const core::ContextAgent& agent) {
  FreezeResult result;
  std::shared_ptr<InferencePlan> plan(new InferencePlan());
  std::string err;

  auto fail = [&](const std::string& msg) {
    result.status = FreezeStatus::kInvalid;
    result.error = msg;
    result.plan.reset();
    return result;
  };

  auto pack_mlp = [&](const nn::Mlp* mlp, int expect_in, int expect_out,
                      const std::string& what, MlpPlan* out) -> bool {
    if (mlp == nullptr) {
      err = what + ": missing submodule";
      return false;
    }
    if (mlp->num_layers() == 0) {
      err = what + ": empty layer stack";
      return false;
    }
    if (mlp->in_dim() != expect_in || mlp->out_dim() != expect_out) {
      err = what + ": expected " + std::to_string(expect_in) + " -> " +
            std::to_string(expect_out) + ", got " +
            std::to_string(mlp->in_dim()) + " -> " +
            std::to_string(mlp->out_dim());
      return false;
    }
    out->in = expect_in;
    out->out = expect_out;
    out->layers.clear();
    int cur = expect_in;
    for (int i = 0; i < mlp->num_layers(); ++i) {
      const nn::Linear& lin = mlp->layer(i);
      if (lin.in_dim() != cur) {
        err = what + ": layer " + std::to_string(i) +
              " input width mismatch";
        return false;
      }
      DenseLayer dl;
      dl.in = lin.in_dim();
      dl.out = lin.out_dim();
      dl.act = MapAct(i + 1 < mlp->num_layers()
                          ? mlp->hidden_activation()
                          : mlp->output_activation());
      const std::string layer_what = what + " layer " + std::to_string(i);
      if (!PackFloats(lin.weight()->value, dl.in, dl.out,
                      layer_what + " weight", &dl.w, &err)) {
        return false;
      }
      if (!PackFloats(lin.bias()->value, 1, dl.out, layer_what + " bias",
                      &dl.b, &err)) {
        return false;
      }
      cur = dl.out;
      out->layers.push_back(std::move(dl));
    }
    return true;
  };

  const core::ContextAgentConfig& cfg = agent.config();
  if (cfg.obs_dim <= 0 || cfg.action_dim <= 0) {
    return fail("agent config has non-positive obs/action dims");
  }
  plan->obs_dim_ = cfg.obs_dim;
  plan->action_dim_ = cfg.action_dim;
  plan->use_extractor_ = cfg.use_extractor;

  if (const rl::ObservationNormalizer* norm = agent.normalizer()) {
    plan->has_normalizer_ = true;
    const double clip = norm->clip();
    if (!std::isfinite(clip) || clip <= 0.0) {
      return fail("normalizer clip is not a positive finite value");
    }
    plan->norm_clip_ = static_cast<float>(clip);
    if (!PackFloats(norm->mean(), 1, cfg.obs_dim, "normalizer mean",
                    &plan->norm_mean_, &err)) {
      return fail(err);
    }
    std::vector<float> std_f;
    if (!PackFloats(norm->Stddev(), 1, cfg.obs_dim, "normalizer stddev",
                    &std_f, &err)) {
      return fail(err);
    }
    plan->norm_inv_std_.resize(std_f.size());
    for (size_t i = 0; i < std_f.size(); ++i) {
      if (std_f[i] <= 0.0f) {
        return fail("normalizer stddev is non-positive");
      }
      plan->norm_inv_std_[i] = 1.0f / std_f[i];
    }
  }

  if (cfg.use_extractor) {
    if (cfg.lstm_hidden <= 0) {
      return fail("extractor hidden size is non-positive");
    }
    plan->lstm_hidden_ = cfg.lstm_hidden;
    const bool has_lstm = agent.lstm() != nullptr;
    const bool has_gru = agent.gru() != nullptr;
    if (has_lstm == has_gru) {
      return fail("extractor agent must have exactly one recurrent cell");
    }
    plan->has_lstm_ = has_lstm;

    const sadae::Sadae* sad = agent.sadae();
    plan->has_sadae_ = sad != nullptr;
    if (sad != nullptr) {
      plan->latent_dim_ = sad->latent_dim();
      plan->f_out_ = cfg.f_out;
      plan->sadae_input_dim_ = sad->config().input_dim();
      if (plan->latent_dim_ <= 0 || plan->f_out_ <= 0) {
        return fail("SADAE latent/f_out dims are non-positive");
      }
      if (plan->sadae_input_dim_ != cfg.obs_dim &&
          plan->sadae_input_dim_ != cfg.obs_dim + cfg.action_dim) {
        return fail("SADAE input layout is neither [obs] nor [obs|action]");
      }
      // The serving path only needs the encoder's posterior-mean head:
      // EncodeRowsValue is the encoder forward followed by slicing the
      // first latent_dim columns, so freeze the final layer truncated to
      // those columns (valid for any elementwise output activation).
      if (!pack_mlp(sad->encoder(), plan->sadae_input_dim_,
                    2 * plan->latent_dim_, "sadae encoder",
                    &plan->encoder_)) {
        return fail(err);
      }
      DenseLayer& last = plan->encoder_.layers.back();
      std::vector<float> w_trunc(static_cast<size_t>(last.in) *
                                 plan->latent_dim_);
      for (int p = 0; p < last.in; ++p) {
        for (int j = 0; j < plan->latent_dim_; ++j) {
          w_trunc[static_cast<size_t>(p) * plan->latent_dim_ + j] =
              last.w[static_cast<size_t>(p) * last.out + j];
        }
      }
      last.w = std::move(w_trunc);
      last.b.resize(plan->latent_dim_);
      last.out = plan->latent_dim_;
      plan->encoder_.out = plan->latent_dim_;

      if (!pack_mlp(agent.f_net(), plan->latent_dim_, plan->f_out_,
                    "f_net", &plan->f_)) {
        return fail(err);
      }
    }

    plan->rnn_in_dim_ =
        cfg.obs_dim + cfg.action_dim + (plan->has_sadae_ ? plan->f_out_ : 0);
    const int hd = plan->lstm_hidden_;
    if (has_lstm) {
      const nn::LstmCell* cell = agent.lstm();
      if (cell->in_dim() != plan->rnn_in_dim_ || cell->hidden_dim() != hd) {
        return fail("lstm cell dims do not match agent config");
      }
      if (!PackFloats(cell->weight()->value, plan->rnn_in_dim_ + hd, 4 * hd,
                      "lstm weight", &plan->lstm_w_, &err) ||
          !PackFloats(cell->bias()->value, 1, 4 * hd, "lstm bias",
                      &plan->lstm_b_, &err)) {
        return fail(err);
      }
    } else {
      const nn::GruCell* cell = agent.gru();
      if (cell->in_dim() != plan->rnn_in_dim_ || cell->hidden_dim() != hd) {
        return fail("gru cell dims do not match agent config");
      }
      if (!PackFloats(cell->w_rz()->value, plan->rnn_in_dim_ + hd, 2 * hd,
                      "gru Wrz", &plan->gru_w_rz_, &err) ||
          !PackFloats(cell->b_rz()->value, 1, 2 * hd, "gru brz",
                      &plan->gru_b_rz_, &err) ||
          !PackFloats(cell->w_xn()->value, plan->rnn_in_dim_, hd, "gru Wxn",
                      &plan->gru_w_xn_, &err) ||
          !PackFloats(cell->w_hn()->value, hd, hd, "gru Whn",
                      &plan->gru_w_hn_, &err) ||
          !PackFloats(cell->b_n()->value, 1, hd, "gru bn", &plan->gru_b_n_,
                      &err)) {
        return fail(err);
      }
    }
    plan->ctx_dim_ = cfg.obs_dim + hd;
  } else {
    plan->ctx_dim_ = cfg.obs_dim;
  }

  if (!pack_mlp(agent.policy_net(), plan->ctx_dim_, cfg.action_dim,
                "policy_net", &plan->policy_)) {
    return fail(err);
  }
  if (!pack_mlp(agent.value_net(), plan->ctx_dim_, 1, "value_net",
                &plan->value_)) {
    return fail(err);
  }
  if (!PackFloats(agent.action_bias(), 1, cfg.action_dim, "action_bias",
                  &plan->action_bias_, &err)) {
    return fail(err);
  }

  int max_width = 0;
  for (const MlpPlan* mlp :
       {&plan->encoder_, &plan->f_, &plan->policy_, &plan->value_}) {
    for (const DenseLayer& dl : mlp->layers) {
      if (dl.out > max_width) max_width = dl.out;
    }
  }
  plan->max_mlp_width_ = max_width;

  result.status = FreezeStatus::kOk;
  result.plan = std::move(plan);
  return result;
}

Workspace InferencePlan::CreateWorkspace(int max_rows) const {
  S2R_CHECK(max_rows > 0);
  Workspace ws;
  ws.max_rows_ = max_rows;
  auto alloc = [max_rows](std::vector<float>& buf, int cols) {
    buf.assign(static_cast<size_t>(max_rows) * (cols > 0 ? cols : 0), 0.0f);
  };
  alloc(ws.obs_raw, obs_dim_);
  alloc(ws.obs_n, obs_dim_);
  alloc(ws.prev_a, action_dim_);
  if (has_sadae_) {
    alloc(ws.set_in, sadae_input_dim_);
    alloc(ws.v, latent_dim_);
    alloc(ws.fv, f_out_);
  }
  if (use_extractor_) {
    alloc(ws.rnn_in, rnn_in_dim_);
    alloc(ws.xh, rnn_in_dim_ + lstm_hidden_);
    alloc(ws.gates, (has_lstm_ ? 4 : 2) * lstm_hidden_);
    alloc(ws.h, lstm_hidden_);
    if (has_lstm_) {
      alloc(ws.c, lstm_hidden_);
    } else {
      alloc(ws.xn, lstm_hidden_);
      alloc(ws.hn, lstm_hidden_);
    }
  }
  alloc(ws.ctx, ctx_dim_);
  alloc(ws.actions, action_dim_);
  alloc(ws.values, 1);
  alloc(ws.scratch_a, max_mlp_width_);
  alloc(ws.scratch_b, max_mlp_width_);
  return ws;
}

void InferencePlan::RunMlp(const MlpPlan& mlp, const float* in, int n,
                           float* out, Workspace* ws) const {
  const float* cur = in;
  float* ping = ws->scratch_a.data();
  float* pong = ws->scratch_b.data();
  const size_t num_layers = mlp.layers.size();
  for (size_t i = 0; i < num_layers; ++i) {
    const DenseLayer& dl = mlp.layers[i];
    float* dst = (i + 1 == num_layers) ? out : ping;
    GemmBiasAct(cur, dl.w.data(), dl.b.data(), dst, n, dl.in, dl.out,
                dl.act);
    cur = dst;
    std::swap(ping, pong);
  }
}

core::ContextAgent::ServeOutput InferencePlan::ServeStep(
    const nn::Tensor& obs, core::ContextAgent::ServeBatch* state,
    Workspace* ws) const {
  S2R_CHECK(state != nullptr && ws != nullptr);
  const int n = obs.rows();
  S2R_CHECK(n > 0 && obs.cols() == obs_dim_);
  S2R_CHECK_MSG(n <= ws->max_rows_, "batch exceeds workspace capacity");
  S2R_CHECK(state->prev_actions.rows() == n &&
            state->prev_actions.cols() == action_dim_);

  const int od = obs_dim_;
  const int ad = action_dim_;

  float* obs_raw = ws->obs_raw.data();
  for (size_t i = 0; i < static_cast<size_t>(n) * od; ++i) {
    obs_raw[i] = static_cast<float>(obs[i]);
  }
  float* prev_a = ws->prev_a.data();
  for (size_t i = 0; i < static_cast<size_t>(n) * ad; ++i) {
    prev_a[i] = static_cast<float>(state->prev_actions[i]);
  }

  float* obs_n = ws->obs_n.data();
  if (has_normalizer_) {
    for (int r = 0; r < n; ++r) {
      const float* xr = obs_raw + static_cast<size_t>(r) * od;
      float* yr = obs_n + static_cast<size_t>(r) * od;
      for (int c = 0; c < od; ++c) {
        const float v = (xr[c] - norm_mean_[c]) * norm_inv_std_[c];
        yr[c] = MaxPs(MinPs(v, norm_clip_), -norm_clip_);
      }
    }
  } else {
    std::memcpy(obs_n, obs_raw,
                static_cast<size_t>(n) * od * sizeof(float));
  }

  core::ContextAgent::ServeOutput out;
  const float* ctx_ptr = nullptr;
  if (use_extractor_) {
    const int hd = lstm_hidden_;
    S2R_CHECK(state->h.rows() == n && state->h.cols() == hd);
    float* h = ws->h.data();
    for (size_t i = 0; i < static_cast<size_t>(n) * hd; ++i) {
      h[i] = static_cast<float>(state->h[i]);
    }

    const float* fv = nullptr;
    if (has_sadae_) {
      // SADAE consumes raw (unnormalized) features, like the double path.
      const float* set_in = obs_raw;
      if (sadae_input_dim_ != od) {
        float* si = ws->set_in.data();
        for (int r = 0; r < n; ++r) {
          float* row = si + static_cast<size_t>(r) * sadae_input_dim_;
          std::memcpy(row, obs_raw + static_cast<size_t>(r) * od,
                      od * sizeof(float));
          std::memcpy(row + od, prev_a + static_cast<size_t>(r) * ad,
                      ad * sizeof(float));
        }
        set_in = si;
      }
      RunMlp(encoder_, set_in, n, ws->v.data(), ws);
      RunMlp(f_, ws->v.data(), n, ws->fv.data(), ws);
      fv = ws->fv.data();
    }

    float* rnn_in = ws->rnn_in.data();
    for (int r = 0; r < n; ++r) {
      float* row = rnn_in + static_cast<size_t>(r) * rnn_in_dim_;
      std::memcpy(row, obs_n + static_cast<size_t>(r) * od,
                  od * sizeof(float));
      std::memcpy(row + od, prev_a + static_cast<size_t>(r) * ad,
                  ad * sizeof(float));
      if (fv != nullptr) {
        std::memcpy(row + od + ad, fv + static_cast<size_t>(r) * f_out_,
                    f_out_ * sizeof(float));
      }
    }

    const int xh_dim = rnn_in_dim_ + hd;
    float* xh = ws->xh.data();
    for (int r = 0; r < n; ++r) {
      float* row = xh + static_cast<size_t>(r) * xh_dim;
      std::memcpy(row, rnn_in + static_cast<size_t>(r) * rnn_in_dim_,
                  rnn_in_dim_ * sizeof(float));
      std::memcpy(row + rnn_in_dim_, h + static_cast<size_t>(r) * hd,
                  hd * sizeof(float));
    }

    if (has_lstm_) {
      S2R_CHECK(state->c.rows() == n && state->c.cols() == hd);
      float* c = ws->c.data();
      for (size_t i = 0; i < static_cast<size_t>(n) * hd; ++i) {
        c[i] = static_cast<float>(state->c[i]);
      }
      float* gates = ws->gates.data();
      GemmBiasAct(xh, lstm_w_.data(), lstm_b_.data(), gates, n, xh_dim,
                  4 * hd, Act::kIdentity);
      for (int r = 0; r < n; ++r) {
        const float* g = gates + static_cast<size_t>(r) * 4 * hd;
        float* cr = c + static_cast<size_t>(r) * hd;
        float* hr = h + static_cast<size_t>(r) * hd;
        for (int k = 0; k < hd; ++k) {
          const float ig = SigmoidF(g[k]);
          const float fg = SigmoidF(g[hd + k]);
          const float gg = TanhF(g[2 * hd + k]);
          const float og = SigmoidF(g[3 * hd + k]);
          const float c_next = fg * cr[k] + ig * gg;
          cr[k] = c_next;
          hr[k] = og * TanhF(c_next);
        }
      }
      for (size_t i = 0; i < static_cast<size_t>(n) * hd; ++i) {
        state->c[i] = static_cast<double>(c[i]);
      }
    } else {
      float* rz = ws->gates.data();
      GemmBiasAct(xh, gru_w_rz_.data(), gru_b_rz_.data(), rz, n, xh_dim,
                  2 * hd, Act::kSigmoid);
      GemmBiasAct(rnn_in, gru_w_xn_.data(), nullptr, ws->xn.data(), n,
                  rnn_in_dim_, hd, Act::kIdentity);
      GemmBiasAct(h, gru_w_hn_.data(), nullptr, ws->hn.data(), n, hd, hd,
                  Act::kIdentity);
      const float* xn = ws->xn.data();
      const float* hn = ws->hn.data();
      for (int r = 0; r < n; ++r) {
        const float* rzr = rz + static_cast<size_t>(r) * 2 * hd;
        const size_t base = static_cast<size_t>(r) * hd;
        for (int k = 0; k < hd; ++k) {
          const float rg = rzr[k];
          const float zg = rzr[hd + k];
          const float nv =
              TanhF(xn[base + k] + rg * hn[base + k] + gru_b_n_[k]);
          const float h_prev = h[base + k];
          h[base + k] = nv + zg * (h_prev - nv);
        }
      }
    }
    for (size_t i = 0; i < static_cast<size_t>(n) * hd; ++i) {
      state->h[i] = static_cast<double>(h[i]);
    }

    float* ctx = ws->ctx.data();
    for (int r = 0; r < n; ++r) {
      float* row = ctx + static_cast<size_t>(r) * ctx_dim_;
      std::memcpy(row, obs_n + static_cast<size_t>(r) * od,
                  od * sizeof(float));
      std::memcpy(row + od, h + static_cast<size_t>(r) * hd,
                  hd * sizeof(float));
    }
    ctx_ptr = ctx;

    if (has_sadae_) {
      out.v = nn::Tensor(n, latent_dim_);
      const float* v = ws->v.data();
      for (size_t i = 0; i < static_cast<size_t>(n) * latent_dim_; ++i) {
        out.v[i] = static_cast<double>(v[i]);
      }
    }
  } else {
    ctx_ptr = obs_n;
  }

  float* actions = ws->actions.data();
  RunMlp(policy_, ctx_ptr, n, actions, ws);
  for (int r = 0; r < n; ++r) {
    float* row = actions + static_cast<size_t>(r) * ad;
    for (int c = 0; c < ad; ++c) row[c] = row[c] + action_bias_[c];
  }
  RunMlp(value_, ctx_ptr, n, ws->values.data(), ws);

  out.actions = nn::Tensor(n, ad);
  for (size_t i = 0; i < static_cast<size_t>(n) * ad; ++i) {
    out.actions[i] = static_cast<double>(actions[i]);
  }
  out.values = nn::Tensor(n, 1);
  for (int r = 0; r < n; ++r) {
    out.values[r] = static_cast<double>(ws->values[r]);
  }
  state->prev_actions = out.actions;
  return out;
}

size_t InferencePlan::memory_bytes() const {
  size_t floats = 0;
  for (const MlpPlan* mlp : {&encoder_, &f_, &policy_, &value_}) {
    for (const DenseLayer& dl : mlp->layers) {
      floats += dl.w.size() + dl.b.size();
    }
  }
  floats += lstm_w_.size() + lstm_b_.size();
  floats += gru_w_rz_.size() + gru_b_rz_.size() + gru_w_xn_.size() +
            gru_w_hn_.size() + gru_b_n_.size();
  floats += norm_mean_.size() + norm_inv_std_.size() + action_bias_.size();
  return floats * sizeof(float);
}

std::string InferencePlan::Describe() const {
  char buf[256];
  std::string cell = "none";
  if (use_extractor_) {
    cell = (has_lstm_ ? "lstm:" : "gru:") + std::to_string(lstm_hidden_);
  }
  std::string sadae = has_sadae_
                          ? "latent=" + std::to_string(latent_dim_) +
                                ",f_out=" + std::to_string(f_out_)
                          : "none";
  std::snprintf(buf, sizeof(buf),
                "InferencePlan{obs=%d act=%d cell=%s sadae=%s norm=%s "
                "%.1f KiB simd=%s}",
                obs_dim_, action_dim_, cell.c_str(), sadae.c_str(),
                has_normalizer_ ? "yes" : "no",
                static_cast<double>(memory_bytes()) / 1024.0,
                SimdLevelName(ActiveSimdLevel()));
  return std::string(buf);
}

}  // namespace infer
}  // namespace sim2rec
