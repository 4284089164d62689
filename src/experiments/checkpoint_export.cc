#include "experiments/checkpoint_export.h"

#include <utility>

#include "util/logging.h"

namespace sim2rec {
namespace experiments {

CheckpointExportObserver::CheckpointExportObserver(
    std::string dir, core::ContextAgent* agent,
    serve::CheckpointMetadata metadata)
    : dir_(std::move(dir)), agent_(agent), metadata_(std::move(metadata)) {}

void CheckpointExportObserver::OnCheckpoint(int iteration) {
  serve::CheckpointMetadata metadata = metadata_;
  metadata.train_iterations = iteration + 1;
  if (!serve::SaveCheckpoint(dir_, *agent_, metadata)) {
    S2R_LOG_WARN("checkpoint export to '%s' failed", dir_.c_str());
  }
}

}  // namespace experiments
}  // namespace sim2rec
