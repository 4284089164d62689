#include "serve/checkpoint.h"

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "nn/serialize.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace sim2rec {
namespace serve {
namespace {

// The only manifest version this binary reads or writes; see the
// versioning note on SaveCheckpoint in the header.
constexpr int kManifestVersion = 3;
constexpr uint32_t kNormMagic = 0x53324e31;  // "S2N1"

std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.txt";
}
std::string AgentPath(const std::string& dir) { return dir + "/agent.bin"; }
std::string SadaePath(const std::string& dir) { return dir + "/sadae.bin"; }
std::string NormalizerPath(const std::string& dir) {
  return dir + "/normalizer.bin";
}

/// Doubles are written in hexfloat ("%a") so the text manifest loses no
/// precision: strtod parses the exact bit pattern back.
std::string FormatDouble(double v) {
  std::ostringstream out;
  out << std::hexfloat << v;
  return out.str();
}

void WriteInts(std::ostream& out, const std::string& key,
               const std::vector<int>& values) {
  out << key;
  for (int v : values) out << ' ' << v;
  out << '\n';
}

void WriteDoubles(std::ostream& out, const std::string& key,
                  const std::vector<double>& values) {
  out << key;
  for (double v : values) out << ' ' << FormatDouble(v);
  out << '\n';
}

using Manifest = std::map<std::string, std::vector<std::string>>;

bool ParseManifest(const std::string& path, Manifest* manifest) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    std::string key;
    if (!(tokens >> key) || key.empty() || key[0] == '#') continue;
    std::vector<std::string> values;
    std::string value;
    while (tokens >> value) values.push_back(value);
    (*manifest)[key] = std::move(values);
  }
  return !in.bad();
}

bool GetInt(const Manifest& m, const std::string& key, int* out) {
  auto it = m.find(key);
  if (it == m.end() || it->second.size() != 1) return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(it->second[0].c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = static_cast<int>(v);
  return true;
}

/// Boolean keys are spelled exactly `false`/`true` — 0/1 is a
/// corruption signal, not an alternative encoding.
bool GetBool(const Manifest& m, const std::string& key, bool* out) {
  auto it = m.find(key);
  if (it == m.end() || it->second.size() != 1) return false;
  if (it->second[0] == "false") {
    *out = false;
  } else if (it->second[0] == "true") {
    *out = true;
  } else {
    return false;
  }
  return true;
}

bool GetU64(const Manifest& m, const std::string& key, uint64_t* out) {
  auto it = m.find(key);
  if (it == m.end() || it->second.size() != 1) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v =
      std::strtoull(it->second[0].c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseDouble(const std::string& token, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool GetDouble(const Manifest& m, const std::string& key, double* out) {
  auto it = m.find(key);
  if (it == m.end() || it->second.size() != 1) return false;
  return ParseDouble(it->second[0], out);
}

bool GetIntList(const Manifest& m, const std::string& key,
                std::vector<int>* out) {
  auto it = m.find(key);
  if (it == m.end()) return false;
  out->clear();
  for (const std::string& token : it->second) {
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(token.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') return false;
    out->push_back(static_cast<int>(v));
  }
  return true;
}

bool GetDoubleList(const Manifest& m, const std::string& key,
                   std::vector<double>* out) {
  auto it = m.find(key);
  if (it == m.end()) return false;
  out->clear();
  for (const std::string& token : it->second) {
    double v = 0.0;
    if (!ParseDouble(token, &v)) return false;
    out->push_back(v);
  }
  return true;
}

bool SaveNormalizer(const std::string& path,
                    const rl::ObservationNormalizer& normalizer) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) return false;
  const uint32_t magic = kNormMagic;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  const int64_t count = normalizer.count();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  nn::WriteTensor(out, normalizer.mean());
  nn::WriteTensor(out, normalizer.m2());
  return out.good();
}

bool LoadNormalizer(const std::string& path,
                    rl::ObservationNormalizer* normalizer) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in.good() || magic != kNormMagic) return false;
  int64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in.good() || count < 0) return false;
  nn::Tensor mean, m2;
  if (!nn::ReadTensor(in, &mean) || !nn::ReadTensor(in, &m2)) return false;
  if (mean.rows() != 1 || mean.cols() != normalizer->dim() ||
      !m2.SameShape(mean)) {
    return false;
  }
  normalizer->RestoreStats(count, mean, m2);
  return true;
}

/// Basic sanity on the restored config before the ContextAgent
/// constructor S2R_CHECKs it (a corrupted manifest must fail the load,
/// not abort the process).
bool ConfigPlausible(const core::ContextAgentConfig& config,
                     bool has_sadae, const sadae::SadaeConfig& sadae) {
  if (config.obs_dim <= 0 || config.action_dim <= 0) return false;
  if (config.use_extractor && config.lstm_hidden <= 0) return false;
  if (!config.action_bias.empty() &&
      static_cast<int>(config.action_bias.size()) != config.action_dim) {
    return false;
  }
  for (int h : config.policy_hidden)
    if (h <= 0) return false;
  for (int h : config.value_hidden)
    if (h <= 0) return false;
  if (has_sadae) {
    if (!config.use_extractor) return false;
    if (config.f_out <= 0) return false;
    for (int h : config.f_hidden)
      if (h <= 0) return false;
    if (sadae.state_dim < 1 || sadae.categorical_dim < 0 ||
        sadae.action_dim < 0 || sadae.latent_dim < 1) {
      return false;
    }
    const int set_dim = sadae.input_dim();
    if (set_dim != config.obs_dim &&
        set_dim != config.obs_dim + config.action_dim) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool SaveCheckpoint(const std::string& dir, core::ContextAgent& agent,
                    const CheckpointMetadata& metadata) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;

  // Binary files first: their CRCs go into the manifest, and a crash
  // mid-save leaves no manifest claiming files that were never written.
  sadae::Sadae* sadae_model = agent.sadae();
  if (!nn::SaveModule(AgentPath(dir), agent)) return false;
  if (sadae_model != nullptr) {
    if (!nn::SaveModule(SadaePath(dir), *sadae_model)) return false;
  }
  if (agent.normalizer() != nullptr) {
    if (!SaveNormalizer(NormalizerPath(dir), *agent.normalizer())) {
      return false;
    }
  }

  // The manifest is staged (tmp + rename) and written last: a
  // CheckpointWatcher polling the directory either sees no manifest
  // (not a candidate yet) or a complete one whose CRC lines cover
  // fully-written weight files — never a half-published bundle it
  // would reject as corrupt.
  const core::ContextAgentConfig& config = agent.config();
  const std::string manifest_tmp = ManifestPath(dir) + ".tmp";
  std::ofstream out(manifest_tmp, std::ios::trunc);
  if (!out.good()) return false;
  out << "sim2rec_checkpoint " << kManifestVersion << '\n';
  out << "obs_dim " << config.obs_dim << '\n';
  out << "action_dim " << config.action_dim << '\n';
  out << "use_extractor " << (config.use_extractor ? "true" : "false")
      << '\n';
  out << "extractor_cell "
      << (config.extractor_cell ==
                  core::ContextAgentConfig::ExtractorCell::kLstm
              ? "lstm"
              : "gru")
      << '\n';
  out << "extractor_hidden " << config.lstm_hidden << '\n';
  WriteInts(out, "f_hidden", config.f_hidden);
  out << "f_out " << config.f_out << '\n';
  WriteInts(out, "policy_hidden", config.policy_hidden);
  WriteInts(out, "value_hidden", config.value_hidden);
  WriteDoubles(out, "action_bias", config.action_bias);
  out << "init_log_std " << FormatDouble(config.init_log_std) << '\n';
  out << "min_log_std " << FormatDouble(config.min_log_std) << '\n';
  out << "max_log_std " << FormatDouble(config.max_log_std) << '\n';
  out << "normalize_observations "
      << (config.normalize_observations ? "true" : "false") << '\n';

  out << "has_sadae " << (sadae_model != nullptr ? "true" : "false")
      << '\n';
  if (sadae_model != nullptr) {
    const sadae::SadaeConfig& sc = sadae_model->config();
    out << "sadae_state_dim " << sc.state_dim << '\n';
    out << "sadae_categorical_dim " << sc.categorical_dim << '\n';
    out << "sadae_action_dim " << sc.action_dim << '\n';
    out << "sadae_latent_dim " << sc.latent_dim << '\n';
    WriteInts(out, "sadae_encoder_hidden", sc.encoder_hidden);
    WriteInts(out, "sadae_decoder_hidden", sc.decoder_hidden);
    out << "sadae_kl_weight " << FormatDouble(sc.kl_weight) << '\n';
  }

  if (!metadata.variant.empty()) out << "variant " << metadata.variant
                                     << '\n';
  out << "seed " << metadata.seed << '\n';
  out << "train_iterations " << metadata.train_iterations << '\n';
  // Optional (hot-swap ordering): only written when the bundle is part
  // of a generation sequence, so other bundles stay byte-for-byte
  // reproducible.
  if (metadata.generation != 0) {
    out << "generation " << metadata.generation << '\n';
  }

  // Integrity lines: crc32.<file> <decimal crc> per binary file.
  const auto write_crc = [&](const std::string& path,
                             const char* name) -> bool {
    uint32_t crc = 0;
    if (!Crc32OfFile(path, &crc)) return false;
    out << "crc32." << name << ' ' << crc << '\n';
    return true;
  };
  if (!write_crc(AgentPath(dir), "agent.bin")) return false;
  if (sadae_model != nullptr &&
      !write_crc(SadaePath(dir), "sadae.bin")) {
    return false;
  }
  if (agent.normalizer() != nullptr &&
      !write_crc(NormalizerPath(dir), "normalizer.bin")) {
    return false;
  }
  if (!out.good()) return false;
  out.close();
  std::filesystem::rename(manifest_tmp, ManifestPath(dir), ec);
  return !ec;
}

LoadResult LoadCheckpointEx(const std::string& dir) {
  LoadResult result;
  std::error_code ec;
  if (!std::filesystem::exists(ManifestPath(dir), ec) || ec) {
    result.status = LoadStatus::kNotFound;
    return result;
  }
  result.status = LoadStatus::kCorrupt;  // until proven otherwise
  Manifest manifest;
  if (!ParseManifest(ManifestPath(dir), &manifest)) return result;
  int version = 0;
  if (!GetInt(manifest, "sim2rec_checkpoint", &version)) return result;
  if (version != kManifestVersion) {
    // Not this binary's format; likely intact, so say so rather than
    // lumping it in with corruption.
    result.status = LoadStatus::kVersionUnsupported;
    return result;
  }

  // Verify each binary file's CRC before parsing any of it.
  const auto crc_ok = [&](const std::string& path,
                          const char* name) -> bool {
    uint64_t expected = 0;
    if (!GetU64(manifest, std::string("crc32.") + name, &expected) ||
        expected > 0xFFFFFFFFull) {
      return false;  // the line is mandatory
    }
    uint32_t actual = 0;
    if (!Crc32OfFile(path, &actual)) return false;
    return actual == static_cast<uint32_t>(expected);
  };

  auto loaded = std::make_unique<LoadedPolicy>();
  core::ContextAgentConfig& config = loaded->config;
  bool use_extractor = false, normalize = false, has_sadae = false;
  if (!GetInt(manifest, "obs_dim", &config.obs_dim) ||
      !GetInt(manifest, "action_dim", &config.action_dim) ||
      !GetBool(manifest, "use_extractor", &use_extractor) ||
      !GetInt(manifest, "extractor_hidden", &config.lstm_hidden) ||
      !GetInt(manifest, "f_out", &config.f_out) ||
      !GetIntList(manifest, "f_hidden", &config.f_hidden) ||
      !GetIntList(manifest, "policy_hidden", &config.policy_hidden) ||
      !GetIntList(manifest, "value_hidden", &config.value_hidden) ||
      !GetDoubleList(manifest, "action_bias", &config.action_bias) ||
      !GetDouble(manifest, "init_log_std", &config.init_log_std) ||
      !GetDouble(manifest, "min_log_std", &config.min_log_std) ||
      !GetDouble(manifest, "max_log_std", &config.max_log_std) ||
      !GetBool(manifest, "normalize_observations", &normalize) ||
      !GetBool(manifest, "has_sadae", &has_sadae)) {
    return result;
  }
  config.use_extractor = use_extractor;
  config.normalize_observations = normalize;
  auto cell_it = manifest.find("extractor_cell");
  if (cell_it == manifest.end() || cell_it->second.size() != 1) {
    return result;
  }
  if (cell_it->second[0] == "lstm") {
    config.extractor_cell =
        core::ContextAgentConfig::ExtractorCell::kLstm;
  } else if (cell_it->second[0] == "gru") {
    config.extractor_cell = core::ContextAgentConfig::ExtractorCell::kGru;
  } else {
    return result;
  }

  sadae::SadaeConfig sadae_config;
  if (has_sadae) {
    if (!GetInt(manifest, "sadae_state_dim", &sadae_config.state_dim) ||
        !GetInt(manifest, "sadae_categorical_dim",
                &sadae_config.categorical_dim) ||
        !GetInt(manifest, "sadae_action_dim", &sadae_config.action_dim) ||
        !GetInt(manifest, "sadae_latent_dim", &sadae_config.latent_dim) ||
        !GetIntList(manifest, "sadae_encoder_hidden",
                    &sadae_config.encoder_hidden) ||
        !GetIntList(manifest, "sadae_decoder_hidden",
                    &sadae_config.decoder_hidden) ||
        !GetDouble(manifest, "sadae_kl_weight", &sadae_config.kl_weight)) {
      return result;
    }
  }
  if (!ConfigPlausible(config, has_sadae, sadae_config)) {
    return result;
  }

  auto variant_it = manifest.find("variant");
  if (variant_it != manifest.end() && variant_it->second.size() == 1) {
    loaded->metadata.variant = variant_it->second[0];
  }
  GetU64(manifest, "seed", &loaded->metadata.seed);
  GetInt(manifest, "train_iterations",
         &loaded->metadata.train_iterations);
  GetU64(manifest, "generation", &loaded->metadata.generation);

  // Rebuild the modules; initial weights are irrelevant (LoadModule
  // overwrites every parameter bit-exactly or fails).
  if (!crc_ok(AgentPath(dir), "agent.bin")) return result;
  if (has_sadae && !crc_ok(SadaePath(dir), "sadae.bin")) return result;

  Rng init_rng(0);
  if (has_sadae) {
    loaded->sadae = std::make_unique<sadae::Sadae>(sadae_config, init_rng);
    if (!nn::LoadModule(SadaePath(dir), *loaded->sadae)) return result;
  }
  loaded->agent = std::make_unique<core::ContextAgent>(
      config, loaded->sadae.get(), init_rng);
  if (!nn::LoadModule(AgentPath(dir), *loaded->agent)) return result;

  if (loaded->agent->normalizer() != nullptr) {
    if (!crc_ok(NormalizerPath(dir), "normalizer.bin")) return result;
    if (!LoadNormalizer(NormalizerPath(dir),
                        loaded->agent->normalizer())) {
      return result;
    }
    // Deployment never updates running statistics.
    loaded->agent->normalizer()->Freeze();
  }
  result.status = LoadStatus::kOk;
  result.policy = std::move(loaded);
  return result;
}

bool ReadCheckpointInfo(const std::string& dir, CheckpointInfo* info) {
  Manifest manifest;
  if (!ParseManifest(ManifestPath(dir), &manifest)) return false;
  int version = 0;
  if (!GetInt(manifest, "sim2rec_checkpoint", &version)) return false;
  info->version = version;
  info->generation = 0;
  GetU64(manifest, "generation", &info->generation);
  return true;
}

std::unique_ptr<LoadedPolicy> LoadCheckpoint(const std::string& dir) {
  return LoadCheckpointEx(dir).policy;
}

std::shared_ptr<const infer::InferencePlan> FreezePlan(
    const LoadedPolicy& policy) {
  if (policy.agent == nullptr) {
    S2R_LOG_WARN("FreezePlan: loaded policy has no agent");
    return nullptr;
  }
  infer::FreezeResult frozen = infer::InferencePlan::Freeze(*policy.agent);
  if (!frozen.ok()) {
    S2R_LOG_WARN("FreezePlan: %s — the policy cannot be served",
                 frozen.error.c_str());
    return nullptr;
  }
  S2R_LOG_INFO("FreezePlan: %s", frozen.plan->Describe().c_str());
  return std::move(frozen.plan);
}

}  // namespace serve
}  // namespace sim2rec
