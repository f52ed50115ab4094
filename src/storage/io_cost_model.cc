#include "storage/io_cost_model.h"

namespace ssr {

double IoStats::SimulatedMicros(const IoCostParams& params) const {
  return static_cast<double>(sequential_reads) * params.seq_page_micros +
         static_cast<double>(random_reads) * params.random_page_micros() +
         static_cast<double>(page_writes) * params.seq_page_micros;
}

}  // namespace ssr
