#include "hierarq/data/storage.h"

namespace hierarq {

const char* StorageKindName(StorageKind kind) {
  switch (kind) {
    case StorageKind::kBaseline:
      return "baseline";
    case StorageKind::kColumnar:
      return "columnar";
  }
  return "unknown";
}

}  // namespace hierarq
