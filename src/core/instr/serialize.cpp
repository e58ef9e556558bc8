#include "core/instr/serialize.h"

#include <array>
#include <istream>
#include <ostream>
#include <sstream>

namespace dpipe {

namespace {

constexpr std::array<InstrKind, 10> kAllKinds = {
    InstrKind::kLoadMicroBatch, InstrKind::kForward,
    InstrKind::kBackward,       InstrKind::kSendActivation,
    InstrKind::kRecvActivation, InstrKind::kSendGradient,
    InstrKind::kRecvGradient,   InstrKind::kFrozenForward,
    InstrKind::kAllReduceGrads, InstrKind::kOptimizerStep};

InstrKind kind_from_string(const std::string& text) {
  for (const InstrKind kind : kAllKinds) {
    if (text == to_string(kind)) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown instruction kind: " + text);
}

void write_instruction(std::ostream& out, const Instruction& i) {
  out << to_string(i.kind) << " b=" << i.backbone << " s=" << i.stage
      << " m=" << i.micro << " c=" << i.component << " l=" << i.layer_begin
      << ':' << i.layer_end << " n=" << i.samples << " p=" << i.peer
      << " sz=" << i.size_mb << '\n';
}

double parse_field(const std::string& token, const std::string& key) {
  DPIPE_REQUIRE(token.size() > key.size() &&
                    token.compare(0, key.size(), key) == 0,
                "malformed instruction field, expected " + key);
  return std::stod(token.substr(key.size()));
}

Instruction parse_instruction(const std::string& line) {
  std::istringstream tokens(line);
  std::string kind_text;
  tokens >> kind_text;
  Instruction i;
  i.kind = kind_from_string(kind_text);
  std::string token;
  tokens >> token;
  i.backbone = static_cast<int>(parse_field(token, "b="));
  tokens >> token;
  i.stage = static_cast<int>(parse_field(token, "s="));
  tokens >> token;
  i.micro = static_cast<int>(parse_field(token, "m="));
  tokens >> token;
  i.component = static_cast<int>(parse_field(token, "c="));
  tokens >> token;
  DPIPE_REQUIRE(token.size() > 2 && token[0] == 'l' && token[1] == '=',
                "malformed layer range");
  const std::size_t colon = token.find(':');
  DPIPE_REQUIRE(colon != std::string::npos, "malformed layer range");
  i.layer_begin = std::stoi(token.substr(2, colon - 2));
  i.layer_end = std::stoi(token.substr(colon + 1));
  tokens >> token;
  i.samples = parse_field(token, "n=");
  tokens >> token;
  i.peer = static_cast<int>(parse_field(token, "p="));
  tokens >> token;
  i.size_mb = parse_field(token, "sz=");
  DPIPE_REQUIRE(static_cast<bool>(tokens) || tokens.eof(),
                "truncated instruction line");
  return i;
}

}  // namespace

void save_program(const InstructionProgram& program, std::ostream& out) {
  out.precision(17);  // Lossless double round-trip.
  out << "dpipe-program v1\n";
  out << "group_size " << program.group_size << '\n';
  out << "num_backbones " << program.num_backbones << '\n';
  for (int dev = 0; dev < program.group_size; ++dev) {
    out << "device " << dev << " preamble "
        << program.preamble[dev].size() << '\n';
    for (const Instruction& i : program.preamble[dev]) {
      write_instruction(out, i);
    }
    out << "device " << dev << " steady " << program.per_device[dev].size()
        << '\n';
    for (const Instruction& i : program.per_device[dev]) {
      write_instruction(out, i);
    }
  }
}

InstructionProgram load_program(std::istream& in) {
  std::string line;
  DPIPE_REQUIRE(std::getline(in, line) && line == "dpipe-program v1",
                "not a dpipe-program v1 file");
  InstructionProgram program;
  std::string keyword;
  {
    DPIPE_REQUIRE(static_cast<bool>(in >> keyword) && keyword == "group_size",
                  "expected group_size");
    DPIPE_REQUIRE(static_cast<bool>(in >> program.group_size) &&
                      program.group_size >= 1,
                  "invalid group_size");
    DPIPE_REQUIRE(
        static_cast<bool>(in >> keyword) && keyword == "num_backbones",
        "expected num_backbones");
    DPIPE_REQUIRE(static_cast<bool>(in >> program.num_backbones) &&
                      program.num_backbones >= 1,
                  "invalid num_backbones");
    std::getline(in, line);  // Consume the trailing newline.
  }
  program.preamble.resize(program.group_size);
  program.per_device.resize(program.group_size);
  for (int section = 0; section < 2 * program.group_size; ++section) {
    DPIPE_REQUIRE(static_cast<bool>(std::getline(in, line)),
                  "truncated program: missing device section");
    std::istringstream header(line);
    std::string tag, phase;
    int dev = -1;
    std::size_t count = 0;
    header >> tag >> dev >> phase >> count;
    DPIPE_REQUIRE(tag == "device" && dev >= 0 && dev < program.group_size &&
                      (phase == "preamble" || phase == "steady"),
                  "malformed device section header: " + line);
    std::vector<Instruction>& target =
        phase == "preamble" ? program.preamble[dev] : program.per_device[dev];
    DPIPE_REQUIRE(target.empty(), "duplicate device section: " + line);
    target.reserve(count);
    for (std::size_t n = 0; n < count; ++n) {
      DPIPE_REQUIRE(static_cast<bool>(std::getline(in, line)),
                    "truncated program: missing instruction");
      target.push_back(parse_instruction(line));
    }
  }
  return program;
}

std::string program_to_string(const InstructionProgram& p) {
  std::ostringstream out;
  save_program(p, out);
  return out.str();
}

InstructionProgram program_from_string(const std::string& text) {
  std::istringstream in(text);
  return load_program(in);
}

}  // namespace dpipe
