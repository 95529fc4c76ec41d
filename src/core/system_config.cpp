#include "core/system_config.hpp"

#include "common/error.hpp"

namespace monde::core {

void SystemConfig::validate() const {
  monde_mem.validate();
  MONDE_REQUIRE(num_monde_devices >= 0 && num_monde_devices <= 64,
                "unreasonable MoNDE device count");
  MONDE_REQUIRE(num_gpus >= 1 && num_gpus <= 16, "unreasonable GPU count");
}

}  // namespace monde::core
