// DVS-golden harness: a miniature Fig.-7b grid whose rendered report is
// fully deterministic (seeded synthetic gestures, seeded training, no
// timing lines). CI runs this binary at the defaults, with AXSNN_SIMD=off
// and with AXSNN_THREADS=1, and byte-diffs every output against
// bench/golden/fig7b_dvs_mini.golden: neither a temporal-pipeline refactor,
// the kernel tier nor the pool size may change the report by a byte.
//
// Regenerating the golden (only after an *intentional* numerical change):
//   ./bench_dvs_golden > ../bench/golden/fig7b_dvs_mini.golden
#include <iostream>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "eval/report.hpp"

using namespace axsnn;

int main() {
  core::DvsWorkbench::Options opts;
  opts.train.epochs = 2;
  opts.time_bins = 8;
  opts.eval_batch = 16;
  core::DvsWorkbench workbench(bench::MakeDvsTrain(44), bench::MakeDvsTest(22),
                               opts);
  const core::DvsWorkbench::TrainedModel model = workbench.Train(1.0f);

  // No tier- or pool-identifying output: every rendition of this report
  // must be byte-for-byte the same file.
  std::cout << "== dvs golden: fig7b mini grid ==\n"
            << "time bins: " << opts.time_bins << ", train accuracy: "
            << eval::FormatValue(model.train_accuracy_pct, 2) << "%\n";

  const data::EventDataset frame_attacked = workbench.Craft(model, "Frame");

  const std::vector<core::VariantSpec> specs = {
      {approx::Precision::kFp32, 0.0, std::nullopt},
      {approx::Precision::kFp32, 0.1, std::nullopt},
      {approx::Precision::kInt8, 0.0, std::nullopt},
      {approx::Precision::kInt8, 0.1, std::nullopt},
  };
  const std::vector<float> clean =
      workbench.EvaluateVariants(model, workbench.test_set(), std::nullopt,
                                 specs);
  const std::vector<float> attacked =
      workbench.EvaluateVariants(model, frame_attacked, std::nullopt, specs);

  std::vector<std::vector<std::string>> rows;
  const char* names[] = {"AccSNN/fp32", "AxSNN(0.1)/fp32", "AccSNN/int8",
                         "AxSNN(0.1)/int8"};
  for (std::size_t i = 0; i < specs.size(); ++i)
    rows.push_back({names[i], eval::FormatValue(clean[i]),
                    eval::FormatValue(attacked[i])});
  eval::PrintTable(std::cout,
                   "mini Fig. 7b: DVS accuracy [%] (clean / frame attack)",
                   {"variant", "no attack", "frame"}, rows);
  return 0;
}
