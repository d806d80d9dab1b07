#include <string>
#include <vector>

#include "cli/cli.hh"

int main(int argc, char** argv) {
  return szi::cli::main(std::vector<std::string>(argv + 1, argv + argc));
}
