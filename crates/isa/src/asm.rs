//! A small two-pass assembler for GISA.
//!
//! The assembler exists so that adversarial guest programs (cache probes,
//! self-modification attempts, interrupt floods) can be written legibly in
//! the test suite and the rogue-behaviour library instead of as hand-encoded
//! word arrays.
//!
//! Supported syntax:
//!
//! * one instruction or directive per line; `#` starts a comment,
//! * labels: `name:` (optionally followed by an instruction on the same line),
//! * registers are written `x0`–`x31`,
//! * immediates are decimal or `0x` hexadecimal, optionally negative,
//! * pseudo-instructions: `li rd, imm` (up to 32-bit), `la rd, label`,
//!   `mv rd, rs`, `j label`, `call label`, `ret`, `nop`,
//! * data directives: `.byte v`, `.word v`, `.dword v`, `.zero n`,
//!   `.align n`.

use crate::inst::{Instruction, Opcode, Reg};
use crate::program::Program;
use std::collections::HashMap;
use std::fmt;

/// An assembly-time error, with the 1-based source line where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, message: impl fmt::Display) -> AsmError {
    AsmError {
        line,
        message: message.to_string(),
    }
}

/// One parsed source item, sized before label resolution.
#[derive(Debug, Clone)]
enum Item {
    Inst {
        line: usize,
        mnemonic: String,
        operands: Vec<String>,
    },
    Bytes(Vec<u8>),
    Align(usize),
}

impl Item {
    /// Size in bytes this item will occupy in the image (alignment is
    /// resolved relative to `offset`).
    fn size(&self, offset: usize) -> usize {
        match self {
            Item::Inst { mnemonic, .. } => match mnemonic.as_str() {
                // `li` and `la` always expand to two instructions so label
                // arithmetic is stable; `call` is jal, `ret` is jalr.
                "li" | "la" => 8,
                _ => 4,
            },
            Item::Bytes(b) => b.len(),
            Item::Align(n) => {
                let n = (*n).max(1);
                (n - offset % n) % n
            }
        }
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    let t = tok.trim();
    if let Some(num) = t.strip_prefix('x') {
        let idx: u8 = num
            .parse()
            .map_err(|_| err(line, format!("invalid register '{t}'")))?;
        if idx >= 32 {
            return Err(err(line, format!("register out of range '{t}'")));
        }
        return Ok(Reg::new(idx));
    }
    Err(err(line, format!("expected register, found '{t}'")))
}

fn parse_imm(tok: &str, line: usize) -> Result<i64, AsmError> {
    let t = tok.trim();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let value = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).or_else(|_| u64::from_str_radix(hex, 16).map(|v| v as i64))
    } else {
        t.parse::<i64>()
    }
    .map_err(|_| err(line, format!("invalid immediate '{tok}'")))?;
    Ok(if neg { -value } else { value })
}

fn check_i16(v: i64, line: usize) -> Result<i16, AsmError> {
    if v < i16::MIN as i64 || v > i16::MAX as i64 {
        Err(err(line, format!("immediate {v} does not fit in 16 bits")))
    } else {
        Ok(v as i16)
    }
}

/// Assembles source text into a [`Program`] whose image starts at offset 0.
///
/// Branch and jump targets may reference labels; `la` loads a label's
/// *absolute* address assuming the program is loaded at the address passed to
/// [`Program::with_base`] (default 0, adjusted by the loader).
///
/// # Examples
///
/// ```
/// let p = guillotine_isa::assemble("li x1, 7\nhalt\n").unwrap();
/// assert_eq!(p.image().len(), 12);
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    assemble_at(source, 0)
}

/// Assembles source text assuming the image will be loaded at `base`.
pub fn assemble_at(source: &str, base: u64) -> Result<Program, AsmError> {
    let mut items: Vec<Item> = Vec::new();
    let mut labels: HashMap<String, u64> = HashMap::new();

    // Pass 1: parse lines, record label offsets.
    let mut offset = 0usize;
    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let mut text = raw;
        if let Some(idx) = text.find('#') {
            text = &text[..idx];
        }
        let mut text = text.trim();
        // Labels (possibly several) at the start of the line.
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                return Err(err(line, "malformed label"));
            }
            if labels
                .insert(label.to_string(), base + offset as u64)
                .is_some()
            {
                return Err(err(line, format!("duplicate label '{label}'")));
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let item = if let Some(rest) = text.strip_prefix('.') {
            let mut parts = rest.split_whitespace();
            let directive = parts.next().unwrap_or("");
            let arg = parts.next().unwrap_or("");
            match directive {
                "byte" => Item::Bytes(vec![parse_imm(arg, line)? as u8]),
                "word" => Item::Bytes((parse_imm(arg, line)? as u32).to_le_bytes().to_vec()),
                "dword" => Item::Bytes((parse_imm(arg, line)? as u64).to_le_bytes().to_vec()),
                "zero" => Item::Bytes(vec![0; parse_imm(arg, line)? as usize]),
                "align" => Item::Align(parse_imm(arg, line)? as usize),
                other => return Err(err(line, format!("unknown directive '.{other}'"))),
            }
        } else {
            let (mnemonic, rest) = match text.find(char::is_whitespace) {
                Some(i) => (&text[..i], text[i..].trim()),
                None => (text, ""),
            };
            let operands: Vec<String> = if rest.is_empty() {
                Vec::new()
            } else {
                rest.split(',').map(|s| s.trim().to_string()).collect()
            };
            Item::Inst {
                line,
                mnemonic: mnemonic.to_lowercase(),
                operands,
            }
        };
        offset += item.size(offset);
        items.push(item);
    }

    // Pass 2: emit bytes.
    let mut image: Vec<u8> = Vec::with_capacity(offset);
    for item in &items {
        match item {
            Item::Bytes(b) => image.extend_from_slice(b),
            Item::Align(n) => {
                let n = (*n).max(1);
                while !image.len().is_multiple_of(n) {
                    image.push(0);
                }
            }
            Item::Inst {
                line,
                mnemonic,
                operands,
            } => {
                let pc = base + image.len() as u64;
                let insts = encode_one(mnemonic, operands, pc, &labels, *line)?;
                for inst in insts {
                    image.extend_from_slice(&inst.encode().to_le_bytes());
                }
            }
        }
    }

    Ok(Program::with_base(base, image, labels))
}

fn resolve(tok: &str, labels: &HashMap<String, u64>, line: usize) -> Result<i64, AsmError> {
    if let Some(&addr) = labels.get(tok.trim()) {
        Ok(addr as i64)
    } else {
        parse_imm(tok, line)
    }
}

fn branch_offset(target: i64, pc: u64, line: usize) -> Result<i16, AsmError> {
    let next = pc as i64 + 4;
    let delta = target - next;
    if delta % 4 != 0 {
        return Err(err(line, "branch target is not 4-byte aligned"));
    }
    check_i16(delta / 4, line)
}

fn need(operands: &[String], n: usize, line: usize, mnemonic: &str) -> Result<(), AsmError> {
    if operands.len() != n {
        Err(err(
            line,
            format!(
                "'{mnemonic}' expects {n} operands, found {}",
                operands.len()
            ),
        ))
    } else {
        Ok(())
    }
}

fn encode_one(
    mnemonic: &str,
    ops: &[String],
    pc: u64,
    labels: &HashMap<String, u64>,
    line: usize,
) -> Result<Vec<Instruction>, AsmError> {
    use Opcode::*;
    let alu = |op: Opcode| -> Result<Vec<Instruction>, AsmError> {
        need(ops, 3, line, mnemonic)?;
        Ok(vec![Instruction::Alu {
            op,
            rd: parse_reg(&ops[0], line)?,
            rs1: parse_reg(&ops[1], line)?,
            rs2: parse_reg(&ops[2], line)?,
        }])
    };
    let alu_imm = |op: Opcode| -> Result<Vec<Instruction>, AsmError> {
        need(ops, 3, line, mnemonic)?;
        Ok(vec![Instruction::AluImm {
            op,
            rd: parse_reg(&ops[0], line)?,
            rs1: parse_reg(&ops[1], line)?,
            imm: check_i16(parse_imm(&ops[2], line)?, line)?,
        }])
    };
    let load = |op: Opcode| -> Result<Vec<Instruction>, AsmError> {
        need(ops, 3, line, mnemonic)?;
        Ok(vec![Instruction::Load {
            op,
            rd: parse_reg(&ops[0], line)?,
            rs1: parse_reg(&ops[1], line)?,
            imm: check_i16(parse_imm(&ops[2], line)?, line)?,
        }])
    };
    let store = |op: Opcode| -> Result<Vec<Instruction>, AsmError> {
        need(ops, 3, line, mnemonic)?;
        Ok(vec![Instruction::Store {
            op,
            rs2: parse_reg(&ops[0], line)?,
            rs1: parse_reg(&ops[1], line)?,
            imm: check_i16(parse_imm(&ops[2], line)?, line)?,
        }])
    };
    let branch = |op: Opcode| -> Result<Vec<Instruction>, AsmError> {
        need(ops, 3, line, mnemonic)?;
        let target = resolve(&ops[2], labels, line)?;
        Ok(vec![Instruction::Branch {
            op,
            rs1: parse_reg(&ops[0], line)?,
            rs2: parse_reg(&ops[1], line)?,
            imm: branch_offset(target, pc, line)?,
        }])
    };

    match mnemonic {
        "nop" => Ok(vec![Instruction::Nop]),
        "add" => alu(Add),
        "sub" => alu(Sub),
        "mul" => alu(Mul),
        "divu" => alu(Divu),
        "remu" => alu(Remu),
        "and" => alu(And),
        "or" => alu(Or),
        "xor" => alu(Xor),
        "sll" => alu(Sll),
        "srl" => alu(Srl),
        "sra" => alu(Sra),
        "slt" => alu(Slt),
        "sltu" => alu(Sltu),
        "addi" => alu_imm(Addi),
        "andi" => alu_imm(Andi),
        "ori" => alu_imm(Ori),
        "xori" => alu_imm(Xori),
        "slli" => alu_imm(Slli),
        "srli" => alu_imm(Srli),
        "lui" => {
            need(ops, 2, line, mnemonic)?;
            Ok(vec![Instruction::Lui {
                rd: parse_reg(&ops[0], line)?,
                imm: parse_imm(&ops[1], line)? as u16,
            }])
        }
        "ldb" => load(Ldb),
        "ldw" => load(Ldw),
        "ldd" => load(Ldd),
        "stb" => store(Stb),
        "stw" => store(Stw),
        "std" => store(Std),
        "beq" => branch(Beq),
        "bne" => branch(Bne),
        "blt" => branch(Blt),
        "bge" => branch(Bge),
        "bltu" => branch(Bltu),
        "bgeu" => branch(Bgeu),
        "jal" => {
            need(ops, 2, line, mnemonic)?;
            let target = resolve(&ops[1], labels, line)?;
            let delta = target - (pc as i64 + 4);
            if delta % 4 != 0 {
                return Err(err(line, "jump target is not 4-byte aligned"));
            }
            Ok(vec![Instruction::Jal {
                rd: parse_reg(&ops[0], line)?,
                imm: (delta / 4) as i32,
            }])
        }
        "jalr" => {
            need(ops, 3, line, mnemonic)?;
            Ok(vec![Instruction::Jalr {
                rd: parse_reg(&ops[0], line)?,
                rs1: parse_reg(&ops[1], line)?,
                imm: check_i16(parse_imm(&ops[2], line)?, line)?,
            }])
        }
        "hvcall" => {
            need(ops, 1, line, mnemonic)?;
            Ok(vec![Instruction::Hvcall {
                arg: parse_imm(&ops[0], line)? as u16,
            }])
        }
        "halt" => Ok(vec![Instruction::Halt]),
        "csrr" => {
            need(ops, 2, line, mnemonic)?;
            Ok(vec![Instruction::Csrr {
                rd: parse_reg(&ops[0], line)?,
                csr: parse_imm(&ops[1], line)? as u16,
            }])
        }
        "csrw" => {
            need(ops, 2, line, mnemonic)?;
            Ok(vec![Instruction::Csrw {
                rs1: parse_reg(&ops[0], line)?,
                csr: parse_imm(&ops[1], line)? as u16,
            }])
        }
        "fence" => Ok(vec![Instruction::Fence]),
        "probe" => {
            need(ops, 2, line, mnemonic)?;
            Ok(vec![Instruction::Probe {
                rd: parse_reg(&ops[0], line)?,
                rs1: parse_reg(&ops[1], line)?,
            }])
        }
        "wfi" => Ok(vec![Instruction::Wfi]),
        // Pseudo-instructions.
        "li" | "la" => {
            need(ops, 2, line, mnemonic)?;
            let rd = parse_reg(&ops[0], line)?;
            let value = resolve(&ops[1], labels, line)?;
            expand_li(rd, value, line)
        }
        "mv" => {
            need(ops, 2, line, mnemonic)?;
            Ok(vec![Instruction::AluImm {
                op: Addi,
                rd: parse_reg(&ops[0], line)?,
                rs1: parse_reg(&ops[1], line)?,
                imm: 0,
            }])
        }
        "j" => {
            need(ops, 1, line, mnemonic)?;
            let target = resolve(&ops[0], labels, line)?;
            let delta = target - (pc as i64 + 4);
            Ok(vec![Instruction::Jal {
                rd: Reg::ZERO,
                imm: (delta / 4) as i32,
            }])
        }
        "call" => {
            need(ops, 1, line, mnemonic)?;
            let target = resolve(&ops[0], labels, line)?;
            let delta = target - (pc as i64 + 4);
            Ok(vec![Instruction::Jal {
                rd: Reg::new(31),
                imm: (delta / 4) as i32,
            }])
        }
        "ret" => Ok(vec![Instruction::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::new(31),
            imm: 0,
        }]),
        other => Err(err(line, format!("unknown mnemonic '{other}'"))),
    }
}

/// Expands `li rd, value` into exactly two instructions.
fn expand_li(rd: Reg, value: i64, line: usize) -> Result<Vec<Instruction>, AsmError> {
    if !(0..=u32::MAX as i64).contains(&value) && !(i16::MIN as i64..0).contains(&value) {
        return Err(err(
            line,
            format!("'li'/'la' supports 32-bit unsigned or 16-bit negative values, got {value}"),
        ));
    }
    if value < 0 {
        // Small negative constant: sign-extended addi plus a padding nop so
        // the expansion size stays fixed at two instructions.
        return Ok(vec![
            Instruction::AluImm {
                op: Opcode::Addi,
                rd,
                rs1: Reg::ZERO,
                imm: value as i16,
            },
            Instruction::Nop,
        ]);
    }
    let v = value as u64;
    let upper = ((v >> 16) & 0xFFFF) as u16;
    let lower = (v & 0xFFFF) as u16;
    Ok(vec![
        Instruction::Lui { rd, imm: upper },
        Instruction::AluImm {
            op: Opcode::Ori,
            rd,
            rs1: rd,
            imm: lower as i16,
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuState, FlatMemory, StepOutcome};

    #[test]
    fn empty_source_assembles_to_empty_image() {
        let p = assemble("").unwrap();
        assert!(p.image().is_empty());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let p = assemble("# a comment\n\n   \n  nop # trailing\n").unwrap();
        assert_eq!(p.image().len(), 4);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let p = assemble(
            "
            start:
            beq x0, x0, end
            nop
            end:
            j start
            ",
        )
        .unwrap();
        assert_eq!(p.image().len(), 12);
        assert_eq!(p.label("start"), Some(0));
        assert_eq!(p.label("end"), Some(8));
    }

    #[test]
    fn li_expands_to_two_instructions() {
        let p = assemble("li x1, 0x12345678\nhalt\n").unwrap();
        assert_eq!(p.image().len(), 12);
        let mut mem = FlatMemory::new(4096);
        mem.load_image(0, &p.image()).unwrap();
        let mut cpu = CpuState::new(0);
        assert_eq!(cpu.run(&mut mem, 10).unwrap(), StepOutcome::Halted);
        assert_eq!(cpu.reg(1), 0x12345678);
    }

    #[test]
    fn li_negative_small_values() {
        let p = assemble("li x1, -5\nhalt\n").unwrap();
        let mut mem = FlatMemory::new(4096);
        mem.load_image(0, &p.image()).unwrap();
        let mut cpu = CpuState::new(0);
        cpu.run(&mut mem, 10).unwrap();
        assert_eq!(cpu.reg(1) as i64, -5);
    }

    #[test]
    fn li_rejects_oversized_values() {
        let e = assemble("li x1, 0x1_0000_0000").unwrap_err();
        // The underscore makes it an invalid immediate; try without.
        assert!(e.message.contains("invalid immediate") || e.message.contains("32-bit"));
        let e = assemble("li x1, 4294967296").unwrap_err();
        assert!(e.message.contains("32-bit"));
    }

    #[test]
    fn la_loads_label_addresses_with_base() {
        let p = assemble_at(
            "
            la x1, data
            halt
            .align 8
            data:
            .dword 0xDEADBEEF
            ",
            0x4000,
        )
        .unwrap();
        let addr = p.label("data").unwrap();
        assert!(addr >= 0x4000);
        let mut mem = FlatMemory::new(1 << 16);
        mem.load_image(0x4000, &p.image()).unwrap();
        let mut cpu = CpuState::new(0x4000);
        cpu.run(&mut mem, 10).unwrap();
        assert_eq!(cpu.reg(1), addr);
    }

    #[test]
    fn data_directives_emit_bytes() {
        let p = assemble(
            "
            .byte 0xAB
            .align 4
            .word 0x11223344
            .dword 0x5566778899AABBCC
            .zero 3
            ",
        )
        .unwrap();
        let img = p.image();
        assert_eq!(img[0], 0xAB);
        assert_eq!(&img[4..8], &[0x44, 0x33, 0x22, 0x11]);
        assert_eq!(img.len(), 4 + 4 + 8 + 3);
    }

    #[test]
    fn unknown_mnemonic_is_an_error() {
        let e = assemble("frobnicate x1, x2").unwrap_err();
        assert!(e.message.contains("unknown mnemonic"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let e = assemble("a:\nnop\na:\nnop\n").unwrap_err();
        assert!(e.message.contains("duplicate label"));
    }

    #[test]
    fn branch_out_of_range_is_an_error() {
        let mut src = String::from("start:\n");
        for _ in 0..40_000 {
            src.push_str("nop\n");
        }
        src.push_str("beq x0, x0, start\n");
        let e = assemble(&src).unwrap_err();
        assert!(e.message.contains("16 bits"));
    }

    #[test]
    fn wrong_operand_count_is_an_error() {
        let e = assemble("add x1, x2").unwrap_err();
        assert!(e.message.contains("expects 3 operands"));
    }

    #[test]
    fn call_and_ret_pseudo_ops() {
        let p = assemble(
            "
            li x10, 1
            call fn
            halt
            fn:
            addi x10, x10, 9
            ret
            ",
        )
        .unwrap();
        let mut mem = FlatMemory::new(4096);
        mem.load_image(0, &p.image()).unwrap();
        let mut cpu = CpuState::new(0);
        assert_eq!(cpu.run(&mut mem, 100).unwrap(), StepOutcome::Halted);
        assert_eq!(cpu.reg(10), 10);
    }
}
