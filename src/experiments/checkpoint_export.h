#ifndef SIM2REC_EXPERIMENTS_CHECKPOINT_EXPORT_H_
#define SIM2REC_EXPERIMENTS_CHECKPOINT_EXPORT_H_

#include <string>

#include "core/context_agent.h"
#include "core/training_observer.h"
#include "serve/checkpoint.h"

namespace sim2rec {
namespace experiments {

/// TrainingObserver that exports a serving bundle (serve::SaveCheckpoint)
/// on every OnCheckpoint callback: the bundle's train_iterations metadata
/// is `iteration + 1` so a bundle written after iteration k reads
/// "trained for k+1 iterations". Every export overwrites `dir` in place,
/// the rest of the metadata passed through untouched. Failures log a
/// warning and keep training (checkpoint export is best-effort by
/// design). The agent must outlive the observer. Shared by the LTS and
/// DPR pipelines.
class CheckpointExportObserver : public core::TrainingObserver {
 public:
  CheckpointExportObserver(std::string dir, core::ContextAgent* agent,
                           serve::CheckpointMetadata metadata);

  void OnCheckpoint(int iteration) override;

 private:
  std::string dir_;
  core::ContextAgent* agent_;  // SaveCheckpoint needs mutable access
  serve::CheckpointMetadata metadata_;
};

}  // namespace experiments
}  // namespace sim2rec

#endif  // SIM2REC_EXPERIMENTS_CHECKPOINT_EXPORT_H_
