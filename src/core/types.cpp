#include "core/types.h"

namespace fi::core {

const char* to_string(SectorState s) {
  switch (s) {
    case SectorState::normal: return "normal";
    case SectorState::disabled: return "disabled";
    case SectorState::corrupted: return "corrupted";
    case SectorState::removed: return "removed";
  }
  return "?";
}

const char* to_string(FileState s) {
  switch (s) {
    case FileState::normal: return "normal";
    case FileState::discard: return "discard";
  }
  return "?";
}

const char* to_string(AllocState s) {
  switch (s) {
    case AllocState::alloc: return "alloc";
    case AllocState::confirm: return "confirm";
    case AllocState::normal: return "normal";
    case AllocState::corrupted: return "corrupted";
  }
  return "?";
}

}  // namespace fi::core
