#include "isa/instruction.hpp"

#include <sstream>

namespace vpsim
{

namespace
{

std::string
reg(RegIndex index)
{
    std::string name(1, 'r');
    if (index == invalidReg)
        name += '?';
    else
        name += std::to_string(static_cast<unsigned>(index));
    return name;
}

} // namespace

std::string
Instruction::disassemble() const
{
    std::ostringstream oss;
    oss << opcodeName(op);
    switch (instClass()) {
      case InstClass::IntAlu:
      case InstClass::IntMul:
      case InstClass::IntDiv:
        if (op == OpCode::Lui) {
            oss << " " << reg(rd) << ", " << imm;
        } else if (readsSrc2(op)) {
            oss << " " << reg(rd) << ", " << reg(rs1) << ", " << reg(rs2);
        } else {
            oss << " " << reg(rd) << ", " << reg(rs1) << ", " << imm;
        }
        break;
      case InstClass::Load:
        oss << " " << reg(rd) << ", " << imm << "(" << reg(rs1) << ")";
        break;
      case InstClass::Store:
        oss << " " << reg(rs2) << ", " << imm << "(" << reg(rs1) << ")";
        break;
      case InstClass::Branch:
        oss << " " << reg(rs1) << ", " << reg(rs2) << ", @" << target;
        break;
      case InstClass::Jump:
        if (op == OpCode::Jal)
            oss << " " << reg(rd) << ", @" << target;
        else
            oss << " " << reg(rd) << ", " << imm << "(" << reg(rs1) << ")";
        break;
      case InstClass::Nop:
      case InstClass::Halt:
        break;
    }
    return oss.str();
}

} // namespace vpsim
